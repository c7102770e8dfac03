// Package dom computes dominator trees, the dominance-preorder numbering
// the paper's bitset implementation indexes by (§5.1), and dominance
// frontiers (used by SSA construction, not by the checker itself).
//
// The numbering is the load-bearing part for liveness checking: a node's
// dominance subtree occupies the contiguous interval [Num[v], MaxNum[v]],
// so "w strictly dominated by v" is an O(1) interval test, the §5.1
// subtree-skipping optimization walks T sets in preorder, and Theorem 2's
// "most-dominating relevant back-edge target" is simply the lowest set bit
// of a T bitset. Package core depends on exactly these properties.
//
// The construction is the iterative algorithm of Cooper, Harvey and
// Kennedy ("A Simple, Fast Dominance Algorithm"), dom.Iterative. The test
// suite cross-checks it against the classic Lengauer–Tarjan algorithm with
// path compression (lt_test.go), kept there as a reference oracle. It runs
// in effectively O(|E|) on the CFG sizes the paper reports (§6.1: avg 35
// blocks, max ~2240). IrreducibleBackEdges and IsReducible implement the
// §6.1 reducibility measurement: a back edge contributes irreducibility
// when its target does not dominate its source.
package dom
