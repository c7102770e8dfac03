package core

import (
	"fmt"

	"fastliveness/internal/bitset"
	"fastliveness/internal/cfg"
	"fastliveness/internal/dom"
)

// Strategy selects how the T_v sets are precomputed.
type Strategy uint8

const (
	// StrategyExact evaluates Definition 5 / Equation 1 for every node in
	// increasing DFS preorder (well-founded by Theorem 3). It yields
	// exactly the paper's T_v sets.
	StrategyExact Strategy = iota
	// StrategyPropagate is the practical scheme of §5.2: Equation 1 for
	// back-edge targets only, union into back-edge sources, one postorder
	// propagation pass over the reduced graph, then add v to each T_v.
	//
	// Read literally, the propagation drops Definition 5's "t ∉ R_v" filter
	// for nodes that are not back-edge targets, which can produce strict
	// supersets of the exact T_v — and extra candidates break Theorem 2's
	// first-candidate-decides rule on reducible CFGs. We therefore finish
	// with the filter the definition implies, subtracting R_v \ {v} from
	// each T_v. The result is a subset of the exact sets that answers every
	// query identically: any candidate t ∈ R_q is redundant, because a use
	// in R_t ⊆ R_q is already witnessed by the mandatory candidate q
	// itself. The test suite checks both the subset relation and answer
	// equality against brute force.
	StrategyPropagate
)

// String names the strategy for logs and benchmarks.
func (s Strategy) String() string {
	switch s {
	case StrategyExact:
		return "exact"
	case StrategyPropagate:
		return "propagate"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// Options tune the checker. The zero value is the paper's configuration
// (propagate strategy, subtree skipping on, reducible fast path on); the
// ablation benchmarks flip individual switches off.
type Options struct {
	Strategy Strategy
	// NoSkipSubtrees disables the §5.1 optimization of skipping a tested
	// node's whole dominance subtree during the T_q walk.
	NoSkipSubtrees bool
	// NoReducibleFastPath disables the Theorem 2 single-test fast path on
	// reducible CFGs.
	NoReducibleFastPath bool
	// SortedT stores the T_v sets as sorted arrays instead of bitsets, the
	// memory-saving variant the paper sketches in §6.1 ("future
	// implementations could use sorted arrays instead of bitsets … and
	// speed up the loop iteration by abandoning bitset_next_set").
	SortedT bool
}

// Checker answers live-in/live-out queries after a CFG-only precomputation.
type Checker struct {
	g    *cfg.Graph
	dfs  *cfg.DFS
	tree *dom.Tree
	opts Options

	// R and T as arena matrices: row = dominance-preorder number, set bits
	// are dominance preorder numbers too. One contiguous allocation backs
	// all n rows of each, so precompute performs O(1) allocations instead
	// of O(n) and the T_q candidate walk reads cache-adjacent rows. t is
	// nil when opts.SortedT dropped the arena for the sorted-array variant.
	r *bitset.Matrix
	t *bitset.Matrix
	// tSorted mirrors t as sorted arrays when opts.SortedT is set.
	tSorted [][]int32
	// numMax[n] = MaxNum of the node numbered n (saves an Order lookup in
	// the hot loop).
	numMax []int
	// backTarget[n] reports whether the node numbered n is a back-edge
	// target (needed by the live-out check, Algorithm 2 line 8).
	backTarget []bool

	reducible bool
}

// New runs the precomputation for g. It computes the DFS and dominator tree
// itself; use NewFrom to share existing analyses.
func New(g *cfg.Graph, opts Options) *Checker {
	d := cfg.NewDFS(g)
	return NewFrom(g, d, dom.Iterative(g, d), opts)
}

// NewFrom runs the precomputation against existing DFS and dominator-tree
// analyses of g.
func NewFrom(g *cfg.Graph, d *cfg.DFS, tree *dom.Tree, opts Options) *Checker {
	c := &Checker{g: g, dfs: d, tree: tree, opts: opts}
	c.reducible = dom.IsReducible(d, tree)
	c.precomputeR()
	switch opts.Strategy {
	case StrategyExact:
		c.precomputeTExact()
	case StrategyPropagate:
		c.precomputeTPropagate()
	default:
		panic("core: unknown strategy")
	}
	c.finish()
	return c
}

// Adopt builds a ready-to-query checker around R/T matrices computed
// earlier — by a previous process, typically, with the arenas loaded back
// from a snapshot (internal/snapshot) instead of re-run through the
// precompute passes. The matrices must have been produced by the same
// Strategy over a structurally identical CFG with the same DFS and
// dominator tree; callers guarantee that by keying snapshots on a
// structural fingerprint. Everything cheap is re-derived here from g, d
// and tree (numMax, backTarget, reducibility, the SortedT conversion), so
// the only trusted inputs are the two arenas, and dimension mismatches are
// rejected rather than adopted.
func Adopt(g *cfg.Graph, d *cfg.DFS, tree *dom.Tree, opts Options, r, t *bitset.Matrix) (*Checker, error) {
	n := d.NumReachable
	for _, m := range []struct {
		name string
		m    *bitset.Matrix
	}{{"R", r}, {"T", t}} {
		if m.m == nil {
			return nil, fmt.Errorf("core: adopt: nil %s matrix", m.name)
		}
		if m.m.Rows() != n || m.m.Len() != n {
			return nil, fmt.Errorf("core: adopt: %s matrix is %d×%d, want %d×%d",
				m.name, m.m.Rows(), m.m.Len(), n, n)
		}
	}
	c := &Checker{g: g, dfs: d, tree: tree, opts: opts, r: r, t: t}
	c.reducible = dom.IsReducible(d, tree)
	c.finish()
	return c, nil
}

// finish derives the query-time helpers every construction path needs from
// the R/T arenas and the shared analyses: the per-node dominance-subtree
// bounds, the back-edge-target marks, and — under opts.SortedT — the
// sorted-array T representation (dropping the T arena).
func (c *Checker) finish() {
	n := c.dfs.NumReachable
	c.numMax = make([]int, n)
	for num, v := range c.tree.Order {
		c.numMax[num] = c.tree.MaxNum[v]
	}
	c.backTarget = make([]bool, n)
	for _, e := range c.dfs.BackEdges {
		c.backTarget[c.tree.Num[e.T]] = true
	}
	if c.opts.SortedT {
		c.tSorted = make([][]int32, n)
		for i := 0; i < n; i++ {
			elems := c.t.Row(i).Elements()
			arr := make([]int32, len(elems))
			for j, e := range elems {
				arr[j] = int32(e)
			}
			c.tSorted[i] = arr
		}
		c.t = nil // one release frees the whole T arena
	}
}

// precomputeR builds the reduced-reachability closure in one pass over the
// nodes in increasing DFS postorder: every reduced edge (v,w) satisfies
// post(w) < post(v), so all successors are final when v is processed. The
// rows live in one arena; the pass allocates nothing per node.
func (c *Checker) precomputeR() {
	n := c.dfs.NumReachable
	c.r = bitset.NewMatrix(n, n)
	for _, v := range c.dfs.PostOrder {
		vn := c.tree.Num[v]
		c.r.RowAdd(vn, vn)
		c.dfs.ReducedSuccs(v, func(w int) {
			c.r.RowUnion(vn, c.tree.Num[w])
		})
	}
}

// precomputeTExact evaluates Equation 1 for every node, iterating in
// increasing DFS preorder; Theorem 3 guarantees each T↑ member was already
// finished (the done mask turns an ordering violation into a panic instead
// of a silent read of a half-built arena row).
func (c *Checker) precomputeTExact() {
	n := c.dfs.NumReachable
	c.t = bitset.NewMatrix(n, n)
	done := make([]bool, n)
	for _, v := range c.dfs.PreOrder {
		vn := c.tree.Num[v]
		c.t.RowAdd(vn, vn)
		for _, e := range c.dfs.BackEdges {
			sn, tn := c.tree.Num[e.S], c.tree.Num[e.T]
			if c.r.RowHas(vn, sn) && !c.r.RowHas(vn, tn) {
				if !done[tn] {
					panic("core: Theorem 3 ordering violated")
				}
				c.t.RowUnion(vn, tn)
			}
		}
		done[vn] = true
	}
}

// precomputeTPropagate implements the three-pass scheme of §5.2, on two
// arenas: a compact targets-only matrix for pass 1 and the final T matrix
// that passes 2–4 fill in place.
func (c *Checker) precomputeTPropagate() {
	n := c.dfs.NumReachable
	tree := c.tree

	// Pass 1: Equation 1 for back-edge targets only, in DFS preorder. The
	// scratch arena has one row per distinct target, indexed by targetRow.
	targetRow := make([]int32, n) // by dom num, -1 for non-targets
	for i := range targetRow {
		targetRow[i] = -1
	}
	targets := 0
	for _, e := range c.dfs.BackEdges {
		if tn := tree.Num[e.T]; targetRow[tn] < 0 {
			targetRow[tn] = int32(targets)
			targets++
		}
	}
	tm := bitset.NewMatrix(targets, n)
	done := make([]bool, n)
	for _, v := range c.dfs.PreOrder {
		vn := tree.Num[v]
		ri := targetRow[vn]
		if ri < 0 {
			continue
		}
		tm.RowAdd(int(ri), vn)
		for _, e := range c.dfs.BackEdges {
			sn, tn := tree.Num[e.S], tree.Num[e.T]
			if c.r.RowHas(vn, sn) && !c.r.RowHas(vn, tn) {
				if !done[tn] {
					panic("core: Theorem 3 ordering violated (targets)")
				}
				tm.RowUnion(int(ri), int(targetRow[tn]))
			}
		}
		done[vn] = true
	}

	// Pass 2: union the targets' sets into each back-edge source, seeding
	// the final T rows directly.
	c.t = bitset.NewMatrix(n, n)
	for _, e := range c.dfs.BackEdges {
		sn, tn := tree.Num[e.S], tree.Num[e.T]
		c.t.Row(sn).Union(tm.Row(int(targetRow[tn])))
	}

	// Pass 3: propagate the source sets through the reduced graph in
	// increasing postorder (successors first). The sets being merged
	// deliberately exclude the nodes themselves — X_v must collect the
	// union of U_s over all s ∈ R_v, nothing more.
	for _, v := range c.dfs.PostOrder {
		vn := tree.Num[v]
		c.dfs.ReducedSuccs(v, func(w int) {
			c.t.RowUnion(vn, tree.Num[w])
		})
	}
	// Pass 4: apply Definition 5's t ∉ R_v filter (see the
	// StrategyPropagate doc comment), then add v itself.
	for vn := 0; vn < n; vn++ {
		c.t.Row(vn).Subtract(c.r.Row(vn))
		c.t.RowAdd(vn, vn)
	}
}

// reachableNum returns the dominance preorder number of v, or -1 when v is
// outside the analyzed (entry-reachable) region.
func (c *Checker) reachableNum(v int) int {
	if v < 0 || v >= len(c.tree.Num) {
		return -1
	}
	return c.tree.Num[v]
}

// usesIn reports whether some use is reduced-reachable from the node
// numbered tn: the paper's "R_t ∩ uses(a) ≠ ∅", read off the def-use chain
// given as CFG node ids.
func usesIn(c *Checker, tn int, uses []int) bool {
	rt := c.r.Row(tn) // hoist the row view: Has then inlines to two loads
	for _, x := range uses {
		if xn := c.reachableNum(x); xn >= 0 && rt.Has(xn) {
			return true
		}
	}
	return false
}

// usesInExcept is usesIn ignoring a use at node skip — Algorithm 2's
// trivial-path rule.
func usesInExcept(c *Checker, tn, skip int, uses []int) bool {
	rt := c.r.Row(tn)
	for _, x := range uses {
		if x == skip {
			continue
		}
		if xn := c.reachableNum(x); xn >= 0 && rt.Has(xn) {
			return true
		}
	}
	return false
}

// usesElsewhere reports whether some use sits at a reachable node other
// than q (Algorithm 2's lines 2–3 at the defining node).
func usesElsewhere(c *Checker, q int, uses []int) bool {
	for _, x := range uses {
		if x != q && c.reachableNum(x) >= 0 {
			return true
		}
	}
	return false
}

// IsLiveIn implements Algorithms 1 and 3: is the variable defined at node
// def, with the given use nodes (per the paper's Definition 1 placement,
// φ uses already attributed to predecessor blocks), live-in at node q?
//
// The variable must satisfy the strict-SSA dominance property: def
// dominates every use. Nodes unreachable from the entry never carry
// liveness.
func (c *Checker) IsLiveIn(def int, uses []int, q int) bool {
	defN := c.reachableNum(def)
	qN := c.reachableNum(q)
	if defN < 0 || qN < 0 {
		return false
	}
	maxDom := c.tree.MaxNum[def]
	// Guard: q must be strictly dominated by def (Algorithm 3's
	// "q <= def || max_dom < q" test).
	if qN <= defN || maxDom < qN {
		return false
	}
	if c.opts.SortedT {
		return c.liveInSortedT(defN, maxDom, qN, uses)
	}
	tq := c.t.Row(qN)
	t := tq.NextSet(defN + 1)
	for t != bitset.None && t <= maxDom {
		if usesIn(c, t, uses) {
			return true
		}
		if c.reducible && !c.opts.NoReducibleFastPath {
			// Theorem 2: on reducible CFGs the first (most dominating)
			// candidate decides the query.
			return false
		}
		next := t + 1
		if !c.opts.NoSkipSubtrees {
			// §5.1: everything in t's dominance subtree has R ⊆ R_t.
			next = c.numMax[t] + 1
		}
		t = tq.NextSet(next)
	}
	return false
}

// liveInSortedT is the §6.1 sorted-array variant of the T_q walk.
func (c *Checker) liveInSortedT(defN, maxDom, qN int, uses []int) bool {
	arr := c.tSorted[qN]
	// Binary search for the first element > defN.
	lo, hi := 0, len(arr)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(arr[mid]) <= defN {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	for i := lo; i < len(arr) && int(arr[i]) <= maxDom; i++ {
		t := int(arr[i])
		if usesIn(c, t, uses) {
			return true
		}
		if c.reducible && !c.opts.NoReducibleFastPath {
			return false
		}
		if !c.opts.NoSkipSubtrees {
			skipTo := c.numMax[t]
			for i+1 < len(arr) && int(arr[i+1]) <= skipTo {
				i++
			}
		}
	}
	return false
}

// IsLiveOut implements Algorithm 2. def, uses and q are as in IsLiveIn.
func (c *Checker) IsLiveOut(def int, uses []int, q int) bool {
	defN := c.reachableNum(def)
	qN := c.reachableNum(q)
	if defN < 0 || qN < 0 {
		return false
	}
	if def == q {
		// Line 2–3: live-out at the defining node iff some use lies
		// elsewhere.
		return usesElsewhere(c, q, uses)
	}
	maxDom := c.tree.MaxNum[def]
	if qN <= defN || maxDom < qN {
		return false // def must strictly dominate q (line 4)
	}
	var t int
	var arr []int32
	var ai int
	var tq *bitset.Set
	if c.opts.SortedT {
		arr = c.tSorted[qN]
		ai = 0
		for ai < len(arr) && int(arr[ai]) <= defN {
			ai++
		}
		if ai < len(arr) {
			t = int(arr[ai])
		} else {
			t = bitset.None
		}
	} else {
		tq = c.t.Row(qN)
		t = tq.NextSet(defN + 1)
	}
	for t != bitset.None && t <= maxDom {
		// Line 7–9: when t = q and q is not a back-edge target, a use at q
		// itself only witnesses the trivial path and must be ignored.
		dropQ := t == qN && !c.backTarget[qN]
		if dropQ {
			if usesInExcept(c, t, q, uses) {
				return true
			}
		} else if usesIn(c, t, uses) {
			return true
		}
		if c.reducible && !c.opts.NoReducibleFastPath {
			// Theorem 2 applies to the non-trivial-path variant as well:
			// the most dominating t has the largest R set, and the dropped
			// use q is dropped only when t = q, the least dominating
			// possibility, which then is the only candidate.
			if !(dropQ) {
				return false
			}
			// If we dropped q we must still consider more dominating
			// candidates… but t = q is the *least* dominating element, so
			// there are none beyond it; continue the loop for soundness on
			// equal-R edge cases.
		}
		next := t + 1
		if !c.opts.NoSkipSubtrees {
			next = c.numMax[t] + 1
		}
		if c.opts.SortedT {
			for ai < len(arr) && int(arr[ai]) < next {
				ai++
			}
			if ai < len(arr) {
				t = int(arr[ai])
			} else {
				t = bitset.None
			}
		} else {
			t = tq.NextSet(next)
		}
	}
	return false
}

// Reducible reports whether the analyzed CFG is reducible.
func (c *Checker) Reducible() bool { return c.reducible }

// RSet returns R of node v (nil for unreachable v) as a view into the R
// arena. Exposed for tests and the worked Figure 3 example; treat as
// read-only.
func (c *Checker) RSet(v int) *bitset.Set {
	if n := c.reachableNum(v); n >= 0 {
		return c.r.Row(n)
	}
	return nil
}

// TSetNodes returns the node IDs in T_v, in dominance-preorder order.
func (c *Checker) TSetNodes(v int) []int {
	n := c.reachableNum(v)
	if n < 0 {
		return nil
	}
	var nums []int
	if c.opts.SortedT {
		for _, e := range c.tSorted[n] {
			nums = append(nums, int(e))
		}
	} else {
		nums = c.t.Row(n).Elements()
	}
	out := make([]int, len(nums))
	for i, num := range nums {
		out[i] = c.tree.Order[num]
	}
	return out
}

// Tree returns the dominator tree the checker was built with.
func (c *Checker) Tree() *dom.Tree { return c.tree }

// DFS returns the depth-first search the checker was built with.
func (c *Checker) DFS() *cfg.DFS { return c.dfs }

// Options returns the options the checker was built with.
func (c *Checker) Options() Options { return c.opts }

// Matrices exposes the R and T arenas for serialization (see Adopt for the
// reverse direction). T is nil for the SortedT variant, which dropped its
// arena after conversion — such checkers cannot be snapshotted. Treat both
// as read-only: they are live query storage.
func (c *Checker) Matrices() (r, t *bitset.Matrix) { return c.r, c.t }

// MemoryBytes reports the payload footprint of the precomputed sets; the
// harness uses it to reproduce the §6.1 break-even discussion and the §8
// quadratic-growth series. Arena-backed storage is accounted by the
// matrices' own footprint method (Matrix.WordBytes, zero for the T arena
// the sorted variant dropped), the sorted arrays by element width — one
// definition per representation, shared by every engine.
func (c *Checker) MemoryBytes() int {
	total := c.r.WordBytes() + c.t.WordBytes()
	for _, a := range c.tSorted {
		total += 4 * len(a)
	}
	return total
}
