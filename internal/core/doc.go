// Package core implements the liveness checking algorithm of Boissinot,
// Hack, Grund, Dupont de Dinechin and Rastello, "Fast Liveness Checking for
// SSA-Form Programs" (CGO 2008). It is the heart of the repository: every
// other layer either feeds it (cfg, dom, ir), competes with it (dataflow,
// lao, pervar, loops), or measures it (bench).
//
// The algorithm splits liveness queries into a variable-independent
// precomputation over the CFG and a cheap online check:
//
//   - R_v (Definition 4): the set of nodes reachable from v in the reduced
//     graph G̃ (the CFG minus DFS back edges, a DAG). Built by
//     Checker.precomputeR in two postorder passes, as banded rows.
//   - T_q (Definition 5 / Equation 1): the back-edge targets relevant for
//     queries at q — targets reachable from q along paths that never
//     re-enter a dominance subtree they left. Checker.precomputeTExact
//     evaluates the definition directly (the specification, quadratic);
//     Checker.precomputeTPropagate is the paper's practical §5.2 scheme
//     that propagates T sets along reduced edges in reverse postorder.
//     Options.Strategy selects between them (the zero value is
//     propagate); both must agree, and the cross-check is part of the
//     test suite (core_test.go), as is the exact sets' equality with a
//     test-only Equation 1 reference.
//
// A live-in query (Algorithm 1, refined into Algorithm 3) intersects T_q
// with the dominance subtree of the variable's definition and asks whether
// any use is reduced-reachable (via R) from one of the surviving nodes;
// live-out (Algorithm 2) differs only at the query block itself. Because R
// and T depend only on the CFG, the precomputed data stays valid under any
// program edit that leaves the CFG alone — the paper's headline robustness
// property, and what lets the fastliveness.Engine cache one Checker per
// function while the program around it is rewritten.
//
// Both sets are indexed by the dominance-tree preorder numbering of package
// dom (§5.1), so "strictly dominated by def" is a contiguous interval and
// the most-dominating candidate is the lowest one, which by Theorem 2 is
// the only candidate that matters on reducible CFGs (Checker.Reducible
// reports whether that fast path is active; Options.NoReducibleFastPath
// ablates it). R is bitsets, because the query tests membership in it,
// but banded: row v keeps only the words of its dense n-bit row from the
// first through the last nonzero one, all rows back to back in one word
// arena with an (offset, lo) index, and a word outside the band is zero.
// On loopy code most of a dense row is zero words, so the bands hold
// about a tenth to a half of the dense matrix; the membership test is
// one more subtraction and compare. T is built as a bitset matrix,
// word-parallel, but over one column per back-edge target only — by
// Equation 1 every member of T_v other than v is a target, and there are
// about n/32 of them — then packed into one CSR arena of sorted rows, the
// sorted-array storage §6.1 proposes; the propagate strategy's R_v filter
// runs in that pack. T averages about two entries per row, so the
// candidate walk is a short linear scan and the arena costs a few bytes
// per node instead of a dense n×n matrix.
package core
