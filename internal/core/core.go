package core

import (
	"fmt"
	"math"
	"math/bits"

	"fastliveness/internal/bitset"
	"fastliveness/internal/cfg"
	"fastliveness/internal/dom"
)

// Strategy selects how the T_v sets are precomputed.
type Strategy uint8

const (
	// StrategyPropagate is the practical scheme of §5.2 and the zero value:
	// Equation 1 for back-edge targets only, union into back-edge sources,
	// one postorder propagation pass over the reduced graph, then add v to
	// each T_v.
	//
	// Read literally, the propagation drops Definition 5's "t ∉ R_v" filter
	// for nodes that are not back-edge targets, which can produce strict
	// supersets of the exact T_v — and extra candidates break Theorem 2's
	// first-candidate-decides rule on reducible CFGs. We therefore apply
	// the filter the definition implies while packing, dropping R_v \ {v}
	// from each T_v. The result is a subset of the exact sets that answers
	// every query identically: any candidate t ∈ R_q is redundant, because
	// a use in R_t ⊆ R_q is already witnessed by the mandatory candidate q
	// itself. The test suite checks both the subset relation and answer
	// equality against brute force.
	StrategyPropagate Strategy = iota
	// StrategyExact evaluates Definition 5 / Equation 1 for every node in
	// increasing DFS preorder (well-founded by Theorem 3). It yields
	// exactly the paper's T_v sets.
	StrategyExact
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
	// Strategy selects the T precomputation; the zero value is
	// StrategyPropagate.
	Strategy Strategy
	// NoSkipSubtrees disables the §5.1 optimization of skipping a tested
	// node's whole dominance subtree during the T_q walk.
	NoSkipSubtrees bool
	// NoReducibleFastPath disables the Theorem 2 single-test fast path on
	// reducible CFGs.
	NoReducibleFastPath bool
}

// Checker answers live-in/live-out queries after a CFG-only precomputation.
type Checker struct {
	g    *cfg.Graph
	dfs  *cfg.DFS
	tree *dom.Tree
	opts Options

	// R is banded: row v (a dominance preorder number, as are its bits)
	// keeps only words [lo_v, lo_v+span_v) of its dense n-bit row — the
	// first through the last nonzero word — and the rows sit back to back
	// in rWords. rIdx holds one (offset, lo) pair per row: rIdx[2v] is
	// row v's first word in rWords, rIdx[2v+1] is lo_v, and the closing
	// pair (len(rWords), 0) at rIdx[2n:] ends the last row, so span_v =
	// rIdx[2v+2] − rIdx[2v].
	rIdx   []int32
	rWords []uint64
	// t is T as one CSR ("compressed sparse row") arena, the sorted-array
	// storage of §6.1 ("future implementations could use sorted arrays
	// instead of bitsets … and speed up the loop iteration by abandoning
	// bitset_next_set"): t[0:n+1] are row offsets, starting at 0, into the
	// entries t[n+1:] (the tEnt view), which hold every row's dominance
	// preorder numbers in increasing order — about two per row on the
	// benchmark corpora.
	t    []int32
	tEnt []int32
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
	c.finish()
	c.precomputeR()
	switch opts.Strategy {
	case StrategyPropagate:
		c.setT(c.precomputeTPropagate())
	case StrategyExact:
		c.setT(c.precomputeTExact())
	default:
		panic("core: unknown strategy")
	}
	return c
}

// Adopt builds a ready-to-query checker around a banded R (index and
// words) and a CSR T arena computed earlier — by a previous process,
// typically, loaded back from a snapshot (internal/snapshot) instead of
// re-run through the precompute passes. They must have been produced by
// the same Strategy over a structurally identical CFG with the same DFS
// and dominator tree; callers guarantee that by keying snapshots on a
// structural fingerprint. Everything cheap is re-derived here from g, d
// and tree (numMax, backTarget, reducibility), so the only trusted inputs
// are the arenas. Their shape is checked, not trusted: an R index whose
// bands could index out of range (checkR, O(n), reading no R word) or a T
// arena whose offsets or entries could (checkT, O(n + entries)) is
// rejected.
func Adopt(g *cfg.Graph, d *cfg.DFS, tree *dom.Tree, opts Options, rIdx []int32, rWords []uint64, t []int32) (*Checker, error) {
	n := d.NumReachable
	if err := checkR(rIdx, len(rWords), n); err != nil {
		return nil, err
	}
	if err := checkT(t, n); err != nil {
		return nil, err
	}
	c := &Checker{g: g, dfs: d, tree: tree, opts: opts, rIdx: rIdx, rWords: rWords}
	c.reducible = dom.IsReducible(d, tree)
	c.setT(t)
	c.finish()
	return c, nil
}

// checkR reports why idx is not a well-formed banded-R index over n nodes
// and nWords words: n+1 (offset, lo) pairs whose offsets start at 0, never
// decrease and end at nWords, whose closing lo is 0, and whose every band
// lies inside the dense row: 0 ≤ lo_v and lo_v + span_v ≤ ⌈n/64⌉. The
// membership test relies on nothing else, and no R word is read, so an
// aliased arena stays unpaged.
func checkR(idx []int32, nWords, n int) error {
	if len(idx) != 2*(n+1) {
		return fmt.Errorf("core: adopt: R index holds %d values, want %d", len(idx), 2*(n+1))
	}
	if idx[0] != 0 {
		return fmt.Errorf("core: adopt: R offsets start at %d, want 0", idx[0])
	}
	if int(idx[2*n]) != nWords || idx[2*n+1] != 0 {
		return fmt.Errorf("core: adopt: R index ends with (%d, %d), want (%d, 0)", idx[2*n], idx[2*n+1], nWords)
	}
	wpr := int64(n+63) / 64
	for v := 0; v < n; v++ {
		off, lo, next := idx[2*v], idx[2*v+1], idx[2*v+2]
		if next < off {
			return fmt.Errorf("core: adopt: R offsets decrease at row %d (%d, %d)", v, off, next)
		}
		if lo < 0 || int64(lo)+int64(next-off) > wpr {
			return fmt.Errorf("core: adopt: R row %d band [%d, +%d) leaves the %d-word row", v, lo, next-off, wpr)
		}
	}
	return nil
}

// checkT reports why t is not a well-formed CSR T arena over n nodes: the
// n+1 offsets must start at 0, never decrease and end at the number of
// entries, and every row must be strictly increasing, in [0, n), and hold
// its own node (v ∈ T_v). The query walks rely on nothing else.
func checkT(t []int32, n int) error {
	if len(t) < n+1 {
		return fmt.Errorf("core: adopt: T arena holds %d values, want at least %d offsets", len(t), n+1)
	}
	off, ent := t[:n+1], t[n+1:]
	if off[0] != 0 {
		return fmt.Errorf("core: adopt: T offsets start at %d, want 0", off[0])
	}
	if int(off[n]) != len(ent) {
		return fmt.Errorf("core: adopt: T offsets end at %d, want %d entries", off[n], len(ent))
	}
	for v := 0; v < n; v++ {
		lo, hi := off[v], off[v+1]
		if hi < lo || int(hi) > len(ent) {
			return fmt.Errorf("core: adopt: T offsets decrease at row %d (%d, %d)", v, lo, hi)
		}
		own := false
		prev := -1
		for _, x := range ent[lo:hi] {
			switch {
			case int(x) <= prev:
				return fmt.Errorf("core: adopt: T row %d is not strictly increasing", v)
			case int(x) >= n:
				return fmt.Errorf("core: adopt: T row %d holds node %d of %d", v, x, n)
			}
			own = own || int(x) == v
			prev = int(x)
		}
		if !own {
			return fmt.Errorf("core: adopt: T row %d lacks its own node", v)
		}
	}
	return nil
}

// targetColumns numbers the distinct back-edge targets in increasing
// dominance preorder: col[vn] is the column of the node numbered vn (-1 for
// a non-target) and num[j] the node of column j. By Equation 1 every member
// of T_v other than v is a back-edge target, so the T passes work on
// matrices of one column per target — about n/32 of them on the benchmark
// corpora — and, columns following dominance preorder, a row's columns in
// increasing order are its entries in order.
func (c *Checker) targetColumns() (col, num []int32) {
	k := 0
	for _, isT := range c.backTarget {
		if isT {
			k++
		}
	}
	col, num = make([]int32, len(c.backTarget)), make([]int32, 0, k)
	for vn, isT := range c.backTarget {
		col[vn] = -1
		if isT {
			col[vn] = int32(len(num))
			num = append(num, int32(vn))
		}
	}
	return col, num
}

// pack converts the n × k scratch T matrix over target columns into the
// CSR arena with one exact-size allocation. A first pass clears from each
// row v its own column and, when filter is set, every column whose node is
// in R_v (Definition 5's t ∉ R_v, see StrategyPropagate), and popcounts
// what is left to size the arena; a second pass peels each row word's set
// bits lowest first into entries, inserting v at its sorted position. Both
// read the words directly (row v is words[v*wpr:][:wpr], the Matrix
// layout), and the filter reads R_v's band words directly; a Set.NextSet
// or Set.Has call per entry made packing several times slower in
// precompute profiles.
func (c *Checker) pack(tm *bitset.Matrix, col, num []int32, filter bool) []int32 {
	n, words := tm.Rows(), tm.Words()
	wpr := (tm.Len() + 63) / 64
	entries := n // every row holds its own node
	for v := 0; v < n; v++ {
		row := words[v*wpr : (v+1)*wpr]
		if j := col[v]; j >= 0 {
			row[j/64] &^= 1 << (j % 64)
		}
		rv, rlo := c.rRow(v)
		for i, w := range row {
			if filter {
				cols := num[64*i:]
				for m := w; m != 0; m &= m - 1 {
					b := bits.TrailingZeros64(m)
					x := int(cols[b])
					if j := x>>6 - rlo; uint(j) < uint(len(rv)) {
						w &^= (rv[j] >> (uint(x) & 63) & 1) << b
					}
				}
				row[i] = w
			}
			entries += bits.OnesCount64(w)
		}
	}
	if n+1+entries > math.MaxInt32 {
		panic("core: T arena exceeds int32 offsets")
	}
	t := make([]int32, n+1+entries)
	ent := t[n+1:]
	k := 0
	for v := 0; v < n; v++ {
		t[v] = int32(k)
		own := false
		for i, w := range words[v*wpr : (v+1)*wpr] {
			for ; w != 0; w &= w - 1 {
				x := num[64*i+bits.TrailingZeros64(w)]
				if !own && int(x) > v {
					ent[k], own = int32(v), true
					k++
				}
				ent[k] = x
				k++
			}
		}
		if !own {
			ent[k] = int32(v)
			k++
		}
	}
	t[n] = int32(k)
	return t
}

// setT installs a well-formed CSR T arena.
func (c *Checker) setT(t []int32) {
	c.t, c.tEnt = t, t[c.dfs.NumReachable+1:]
}

// candidates returns the entries of T_q above defN, in increasing
// dominance preorder — a linear scan, as T rows hold about two entries.
// The query walks take the prefix that stays inside def's dominance
// subtree.
func (c *Checker) candidates(qN, defN int) []int32 {
	tq := c.tEnt[c.t[qN]:c.t[qN+1]]
	for len(tq) > 0 && int(tq[0]) <= defN {
		tq = tq[1:]
	}
	return tq
}

// finish derives the query-time helpers every construction path needs from
// the shared analyses: the per-node dominance-subtree bounds and the
// back-edge-target marks.
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
}

// precomputeR builds the banded reduced-reachability closure in two passes
// over the nodes in increasing DFS postorder: every reduced edge (v,w)
// satisfies post(w) < post(v), so all successors are final when v is
// processed. Pass A sizes v's band as the smallest and largest of v's own
// word and its reduced successors' band words. That is exact, not a
// bound: a band's end words are nonzero by construction (v's own word
// holds v, and an OR keeps a successor's nonzero end words nonzero). One
// exact-size allocation follows, then pass B sets v's own bit and ORs each
// successor's band into v's row at word lo_w − lo_v. No dense row is ever
// built, and neither pass allocates per node.
func (c *Checker) precomputeR() {
	n := c.dfs.NumReachable
	tree := c.tree
	idx := make([]int32, 2*(n+1))
	// Pass A: idx[2v] holds v's last band word for now, idx[2v+1] its lo.
	for _, v := range c.dfs.PostOrder {
		vn := tree.Num[v]
		lo, hi := int32(vn/64), int32(vn/64)
		c.dfs.ReducedSuccs(v, func(w int) {
			wn := tree.Num[w]
			hi, lo = max(hi, idx[2*wn]), min(lo, idx[2*wn+1])
		})
		idx[2*vn], idx[2*vn+1] = hi, lo
	}
	total := 0
	for vn := 0; vn < n; vn++ {
		span := int(idx[2*vn]-idx[2*vn+1]) + 1
		idx[2*vn] = int32(total)
		total += span
	}
	if total > math.MaxInt32 {
		panic("core: R band arena exceeds int32 offsets")
	}
	idx[2*n] = int32(total)
	c.rIdx, c.rWords = idx, make([]uint64, total)
	// Pass B.
	for _, v := range c.dfs.PostOrder {
		vn := tree.Num[v]
		row, lo := c.rRow(vn)
		row[vn/64-lo] |= 1 << (vn % 64)
		c.dfs.ReducedSuccs(v, func(w int) {
			src, wlo := c.rRow(tree.Num[w])
			dst := row[wlo-lo:]
			for i, x := range src {
				dst[i] |= x
			}
		})
	}
}

// rRow returns the band of R row vn: its stored words and lo, the dense
// word index of the first.
func (c *Checker) rRow(vn int) (row []uint64, lo int) {
	i := c.rIdx[2*vn : 2*vn+3]
	return c.rWords[i[0]:i[2]], int(i[1])
}

// bandHas reports whether x is in the R row whose band is row from word lo
// on: a word outside the band is zero.
func bandHas(row []uint64, lo, x int) bool {
	j := x>>6 - lo
	return uint(j) < uint(len(row)) && row[j]>>(uint(x)&63)&1 != 0
}

// precomputeTExact evaluates Equation 1 for every node, iterating in
// increasing DFS preorder, into an n × k scratch matrix over target
// columns that pack then converts. A target's row holds its own column,
// so the rows unioned into later nodes carry it; pack drops it again and
// inserts every node at its sorted position. Theorem 3 guarantees each T↑
// member was already finished (the done mask turns an ordering violation
// into a panic instead of a silent read of a half-built row).
func (c *Checker) precomputeTExact() []int32 {
	n := c.dfs.NumReachable
	col, num := c.targetColumns()
	t := bitset.NewMatrix(n, len(num))
	done := make([]bool, n)
	for _, v := range c.dfs.PreOrder {
		vn := c.tree.Num[v]
		if j := col[vn]; j >= 0 {
			t.RowAdd(vn, int(j))
		}
		rv, rlo := c.rRow(vn)
		for _, e := range c.dfs.BackEdges {
			sn, tn := c.tree.Num[e.S], c.tree.Num[e.T]
			if bandHas(rv, rlo, sn) && !bandHas(rv, rlo, tn) {
				if !done[tn] {
					panic("core: Theorem 3 ordering violated")
				}
				t.RowUnion(vn, tn)
			}
		}
		done[vn] = true
	}
	return c.pack(t, col, num, false)
}

// precomputeTPropagate implements the scheme of §5.2 on two scratch
// matrices over target columns: a k × k one for pass 1 and an n × k one
// that passes 2–3 fill and pack filters (pass 4) and converts.
func (c *Checker) precomputeTPropagate() []int32 {
	n := c.dfs.NumReachable
	tree := c.tree
	col, num := c.targetColumns()
	k := len(num)

	// Pass 1: Equation 1 for back-edge targets only, in DFS preorder, one
	// row per target.
	tm := bitset.NewMatrix(k, k)
	done := make([]bool, k)
	for _, v := range c.dfs.PreOrder {
		vn := tree.Num[v]
		j := int(col[vn])
		if j < 0 {
			continue
		}
		tm.RowAdd(j, j)
		rv, rlo := c.rRow(vn)
		for _, e := range c.dfs.BackEdges {
			sn, tn := tree.Num[e.S], tree.Num[e.T]
			if bandHas(rv, rlo, sn) && !bandHas(rv, rlo, tn) {
				if !done[col[tn]] {
					panic("core: Theorem 3 ordering violated (targets)")
				}
				tm.RowUnion(j, int(col[tn]))
			}
		}
		done[j] = true
	}

	// Pass 2: union the targets' sets into each back-edge source, seeding
	// the T rows directly.
	t := bitset.NewMatrix(n, k)
	for _, e := range c.dfs.BackEdges {
		sn, tn := tree.Num[e.S], tree.Num[e.T]
		t.Row(sn).Union(tm.Row(int(col[tn])))
	}

	// Pass 3: propagate the source sets through the reduced graph in
	// increasing postorder (successors first). The sets being merged
	// deliberately exclude the nodes themselves — X_v must collect the
	// union of U_s over all s ∈ R_v, nothing more.
	for _, v := range c.dfs.PostOrder {
		vn := tree.Num[v]
		c.dfs.ReducedSuccs(v, func(w int) {
			t.RowUnion(vn, tree.Num[w])
		})
	}
	// Pass 4, in pack: apply Definition 5's t ∉ R_v filter (see the
	// StrategyPropagate doc comment), then add v itself.
	return c.pack(t, col, num, true)
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
	rt, lo := c.rRow(tn) // hoist the band: bandHas then inlines to two loads
	for _, x := range uses {
		if xn := c.reachableNum(x); xn >= 0 && bandHas(rt, lo, xn) {
			return true
		}
	}
	return false
}

// usesInExcept is usesIn ignoring a use at node skip — Algorithm 2's
// trivial-path rule.
func usesInExcept(c *Checker, tn, skip int, uses []int) bool {
	rt, lo := c.rRow(tn)
	for _, x := range uses {
		if x == skip {
			continue
		}
		if xn := c.reachableNum(x); xn >= 0 && bandHas(rt, lo, xn) {
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
	tq := c.candidates(qN, defN)
	for i := 0; i < len(tq) && int(tq[i]) <= maxDom; i++ {
		t := int(tq[i])
		if usesIn(c, t, uses) {
			return true
		}
		if c.reducible && !c.opts.NoReducibleFastPath {
			// Theorem 2: on reducible CFGs the first (most dominating)
			// candidate decides the query.
			return false
		}
		if !c.opts.NoSkipSubtrees {
			// §5.1: everything in t's dominance subtree has R ⊆ R_t.
			for skip := c.numMax[t]; i+1 < len(tq) && int(tq[i+1]) <= skip; {
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
	tq := c.candidates(qN, defN)
	for i := 0; i < len(tq) && int(tq[i]) <= maxDom; i++ {
		t := int(tq[i])
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
		if !c.opts.NoSkipSubtrees {
			for skip := c.numMax[t]; i+1 < len(tq) && int(tq[i+1]) <= skip; {
				i++
			}
		}
	}
	return false
}

// Reducible reports whether the analyzed CFG is reducible.
func (c *Checker) Reducible() bool { return c.reducible }

// RSet returns R of node v (nil for unreachable v) as a fresh set of
// dominance preorder numbers, unpacked from v's band. Exposed for tests
// and the worked Figure 3 example; queries read the band itself.
func (c *Checker) RSet(v int) *bitset.Set {
	vn := c.reachableNum(v)
	if vn < 0 {
		return nil
	}
	n := c.dfs.NumReachable
	s := bitset.New(n)
	row, lo := c.rRow(vn)
	for i, w := range row {
		for ; w != 0; w &= w - 1 {
			if x := 64*(lo+i) + bits.TrailingZeros64(w); x < n { // adopted words are trusted, not checked
				s.Add(x)
			}
		}
	}
	return s
}

// TSetNodes returns the node IDs in T_v, in dominance-preorder order.
func (c *Checker) TSetNodes(v int) []int {
	n := c.reachableNum(v)
	if n < 0 {
		return nil
	}
	row := c.candidates(n, -1)
	out := make([]int, len(row))
	for i, num := range row {
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

// Arenas exposes banded R — its (offset, lo) index and its words — and the
// CSR T arena for serialization (see Adopt for the reverse direction).
// Treat all three as read-only: they are live query storage.
func (c *Checker) Arenas() (rIdx []int32, rWords []uint64, t []int32) {
	return c.rIdx, c.rWords, c.t
}

// MemoryBytes reports the payload footprint of the precomputed sets; the
// harness uses it to reproduce the §6.1 break-even discussion and the §8
// quadratic-growth series: 8 bytes per R band word plus 4 bytes per value
// of the R index and of the T arena, offsets included.
func (c *Checker) MemoryBytes() int {
	return 8*len(c.rWords) + 4*(len(c.rIdx)+len(c.t))
}
