package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"fastliveness/internal/cfg"
	"fastliveness/internal/dom"
	"fastliveness/internal/gen"
	"fastliveness/internal/graphgen"
)

// bruteLiveIn is the direct reading of Definition 2: a is live-in at q iff
// there is a path from q to some use that does not contain def. It searches
// the raw graph with def removed.
func bruteLiveIn(g *cfg.Graph, def int, uses []int, q int) bool {
	if q == def {
		return false
	}
	useSet := map[int]bool{}
	for _, u := range uses {
		useSet[u] = true
	}
	seen := make([]bool, g.N())
	stack := []int{q}
	seen[q] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if useSet[v] {
			return true
		}
		for _, w := range g.Succs[v] {
			if w != def && !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return false
}

// bruteLiveOut is Definition 3: live-in at some successor.
func bruteLiveOut(g *cfg.Graph, def int, uses []int, q int) bool {
	for _, s := range g.Succs[q] {
		if bruteLiveIn(g, def, uses, s) {
			return true
		}
	}
	return false
}

// allOptions enumerates every checker configuration the tests must agree
// across.
func allOptions() []Options {
	var out []Options
	for _, strat := range []Strategy{StrategyExact, StrategyPropagate} {
		for _, noSkip := range []bool{false, true} {
			for _, noFast := range []bool{false, true} {
				out = append(out, Options{
					Strategy:            strat,
					NoSkipSubtrees:      noSkip,
					NoReducibleFastPath: noFast,
				})
			}
		}
	}
	return out
}

// checkGraphAgainstBrute checks every checker's CSR T arena shape, then
// exhaustively compares the checker with the brute force on every valid
// (def, uses, q) combination for a few random variables.
func checkGraphAgainstBrute(t *testing.T, g *cfg.Graph, rng *rand.Rand, trial int) {
	t.Helper()
	d := cfg.NewDFS(g)
	tree := dom.Iterative(g, d)
	checkers := make([]*Checker, 0, 8)
	nr := d.NumReachable
	target := make([]bool, nr)
	for _, e := range d.BackEdges {
		target[tree.Num[e.T]] = true
	}
	for _, o := range allOptions() {
		c := NewFrom(g, d, tree, o)
		checkers = append(checkers, c)
		// n+1 offsets from 0 to the entry count, never decreasing, then
		// strictly increasing rows in [0, n) that hold their own node.
		off, ent := c.t[:nr+1], c.t[nr+1:]
		if off[0] != 0 || int(off[nr]) != len(ent) {
			t.Fatalf("trial %d (opts %+v): T offsets run %d..%d over %d entries", trial, o, off[0], off[nr], len(ent))
		}
		for v := 0; v < nr; v++ {
			if off[v] > off[v+1] {
				t.Fatalf("trial %d (opts %+v): T offsets decrease at row %d", trial, o, v)
			}
			row, own := ent[off[v]:off[v+1]], false
			for i, x := range row {
				if x < 0 || int(x) >= nr || (i > 0 && x <= row[i-1]) {
					t.Fatalf("trial %d (opts %+v): T row %d = %v is not strictly increasing in [0,%d)", trial, o, v, row, nr)
				}
				own = own || int(x) == v
				// Equation 1 unions only T sets of back-edge targets, so
				// the T build runs over target columns alone.
				if int(x) != v && !target[x] {
					t.Fatalf("trial %d (opts %+v): T row %d = %v holds %d, not a back-edge target", trial, o, v, row, x)
				}
			}
			if !own {
				t.Fatalf("trial %d (opts %+v): T row %d = %v lacks %d", trial, o, v, row, v)
			}
		}
	}
	n := g.N()
	// For each candidate definition node, build a few random use sets
	// honoring the strict-SSA dominance property (def dominates all uses).
	for def := 0; def < n; def++ {
		if !tree.Reachable(def) {
			continue
		}
		var dominated []int
		for v := 0; v < n; v++ {
			if tree.Reachable(v) && tree.Dominates(def, v) {
				dominated = append(dominated, v)
			}
		}
		for variant := 0; variant < 3; variant++ {
			k := 1 + rng.Intn(3)
			uses := make([]int, 0, k)
			for i := 0; i < k; i++ {
				uses = append(uses, dominated[rng.Intn(len(dominated))])
			}
			for q := 0; q < n; q++ {
				if !tree.Reachable(q) {
					continue
				}
				wantIn := bruteLiveIn(g, def, uses, q)
				wantOut := bruteLiveOut(g, def, uses, q)
				for ci, c := range checkers {
					if got := c.IsLiveIn(def, uses, q); got != wantIn {
						t.Fatalf("trial %d cfg=%d nodes: IsLiveIn(def=%d uses=%v q=%d) = %v want %v (opts %+v)\nT_q=%v R:%v",
							trial, n, def, uses, q, got, wantIn, allOptions()[ci], c.TSetNodes(q), c.RSet(q))
					}
					if got := c.IsLiveOut(def, uses, q); got != wantOut {
						t.Fatalf("trial %d cfg=%d nodes: IsLiveOut(def=%d uses=%v q=%d) = %v want %v (opts %+v)",
							trial, n, def, uses, q, got, wantOut, allOptions()[ci])
					}
				}
			}
		}
	}
}

func TestCheckerAgainstBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	cfgShape := graphgen.Config{
		MinNodes: 2, MaxNodes: 18, ExtraEdgeFactor: 1.8, BackEdgeProb: 0.4, AllowSelfLoops: true,
	}
	for trial := 0; trial < 60; trial++ {
		g := graphgen.Random(rng, cfgShape)
		checkGraphAgainstBrute(t, g, rng, trial)
	}
}

func TestCheckerAgainstBruteForceReducible(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	cfgShape := graphgen.Config{
		MinNodes: 2, MaxNodes: 18, ExtraEdgeFactor: 1.0, BackEdgeProb: 0.5, AllowSelfLoops: true,
	}
	for trial := 0; trial < 40; trial++ {
		g := graphgen.RandomReducible(rng, cfgShape)
		checkGraphAgainstBrute(t, g, rng, trial)
	}
}

// equation1 is the test-only reference for the exact T sets, by node id:
// R_v by a search over the raw graph minus the DFS back edges, then
// Equation 1, T_v = {v} ∪ ⋃ {T_t : (s,t) a back edge, s ∈ R_v, t ∉ R_v},
// by memoized recursion over map sets. Unreachable nodes get nil.
func equation1(t *testing.T, g *cfg.Graph, d *cfg.DFS, tree *dom.Tree) []map[int]bool {
	t.Helper()
	back := map[cfg.Edge]bool{}
	for _, e := range d.BackEdges {
		back[e] = true
	}
	reach := make([]map[int]bool, g.N())
	for v := range reach {
		if !tree.Reachable(v) {
			continue
		}
		rv := map[int]bool{v: true}
		for stack := []int{v}; len(stack) > 0; {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, w := range g.Succs[x] {
				if !back[cfg.Edge{S: x, T: w}] && !rv[w] {
					rv[w] = true
					stack = append(stack, w)
				}
			}
		}
		reach[v] = rv
	}
	sets := make([]map[int]bool, g.N())
	busy := make([]bool, g.N())
	var tset func(v int) map[int]bool
	tset = func(v int) map[int]bool {
		if sets[v] != nil {
			return sets[v]
		}
		if busy[v] {
			t.Fatalf("Equation 1 recursion revisits T_%d", v)
		}
		busy[v] = true
		tv := map[int]bool{v: true}
		for _, e := range d.BackEdges {
			if reach[v][e.S] && !reach[v][e.T] {
				for x := range tset(e.T) {
					tv[x] = true
				}
			}
		}
		sets[v] = tv
		return tv
	}
	for v := range sets {
		if tree.Reachable(v) {
			tset(v)
		}
	}
	return sets
}

// The exact strategy's arena equals the Equation 1 reference row for row.
func TestExactTMatchesEquation1(t *testing.T) {
	rng := rand.New(rand.NewSource(106))
	shape := graphgen.Config{
		MinNodes: 2, MaxNodes: 300, ExtraEdgeFactor: 1.6, BackEdgeProb: 0.4, AllowSelfLoops: true,
	}
	for trial := 0; trial < 60; trial++ {
		var g *cfg.Graph
		if trial%2 == 0 {
			g = graphgen.Random(rng, shape)
		} else {
			g = graphgen.RandomReducible(rng, shape)
		}
		d := cfg.NewDFS(g)
		tree := dom.Iterative(g, d)
		c := NewFrom(g, d, tree, Options{Strategy: StrategyExact})
		for v, want := range equation1(t, g, d, tree) {
			got := c.TSetNodes(v)
			if len(got) != len(want) {
				t.Fatalf("trial %d (%d nodes): T_%d = %v, want %v", trial, g.N(), v, got, want)
			}
			for _, x := range got {
				if !want[x] {
					t.Fatalf("trial %d (%d nodes): T_%d = %v, want %v", trial, g.N(), v, got, want)
				}
			}
		}
	}
}

// genFunc returns the CFG of a loopy gen function of about the given block
// count: nested loops nine deep, like the restart benchmark's functions.
func genFunc(t *testing.T, blocks int, seed int64, irreducible bool) *cfg.Graph {
	t.Helper()
	c := gen.Default(seed)
	c.TargetBlocks, c.MaxDepth, c.Irreducible = blocks, 9, irreducible
	g, _ := cfg.FromFunc(gen.Generate("scratch", c))
	return g
}

// The precompute needs no n×n scratch: what one NewFrom allocates beyond
// the R band and T arena it keeps stays within 0.3× the dense size of R
// plus T (a dense scratch T matrix alone is as large as dense R).
func TestPrecomputeAllocatesNoSquareScratch(t *testing.T) {
	for _, blocks := range []int{4096, 8192} {
		g := genFunc(t, blocks, int64(blocks)*1911, false)
		d := cfg.NewDFS(g)
		tree := dom.Iterative(g, d)
		n := d.NumReachable
		for _, s := range []Strategy{StrategyPropagate, StrategyExact} {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			ck := NewFrom(g, d, tree, Options{Strategy: s})
			runtime.ReadMemStats(&after)
			_, _, tArena := ck.Arenas()
			kept := ck.MemoryBytes()
			dense := 8*n*((n+63)/64) + 4*len(tArena)
			scratch := float64(after.TotalAlloc-before.TotalAlloc) - float64(kept)
			t.Logf("%d blocks, %v: scratch %.2f× dense R and T", blocks, s, scratch/float64(dense))
			if scratch > 0.3*float64(dense) {
				t.Errorf("%d blocks, %v: NewFrom allocated %.0f bytes beyond the %d it keeps, %.2f× the %d of dense R and T (limit 0.3×)",
					blocks, s, scratch, kept, scratch/float64(dense), dense)
			}
		}
	}
}

// Banded R stores a small share of the dense matrix on loopy functions:
// each row keeps only its first-to-last nonzero word window.
func TestBandedRFootprint(t *testing.T) {
	for _, blocks := range []int{4096, 8192} {
		g := genFunc(t, blocks, int64(blocks)*1911, false)
		c := New(g, Options{})
		n := c.DFS().NumReachable
		_, words, _ := c.Arenas()
		dense := n * ((n + 63) / 64)
		t.Logf("%d blocks (%d nodes): R bands hold %.2f× the dense words", blocks, n, float64(len(words))/float64(dense))
		if float64(len(words)) > 0.4*float64(dense) {
			t.Errorf("%d blocks (%d nodes): R bands hold %d words, %.2f× the %d of a dense matrix (limit 0.4×)",
				blocks, n, len(words), float64(len(words))/float64(dense), dense)
		}
	}
}

// denseR is the test-only reference for R (Definition 4): for each node, a
// search of the graph minus the DFS back edges, recorded as a dense bitset
// row over dominance preorder numbers.
func denseR(g *cfg.Graph, d *cfg.DFS, tree *dom.Tree) [][]uint64 {
	n := d.NumReachable
	rows := make([][]uint64, n)
	seen := make([]int, g.N())
	for i := range seen {
		seen[i] = -1
	}
	var stack []int
	for v := 0; v < g.N(); v++ {
		if !tree.Reachable(v) {
			continue
		}
		row := make([]uint64, (n+63)/64)
		stack, seen[v] = append(stack[:0], v), v
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			row[tree.Num[x]/64] |= 1 << (tree.Num[x] % 64)
			for _, w := range g.Succs[x] {
				if !d.IsBackEdge(x, w) && seen[w] != v {
					seen[w] = v
					stack = append(stack, w)
				}
			}
		}
		rows[tree.Num[v]] = row
	}
	return rows
}

// checkBandsMatchDense checks c's banded R against the dense reference bit
// for bit: each band is the dense row's first-to-last nonzero word window,
// exactly, and every word outside it is zero.
func checkBandsMatchDense(t *testing.T, name string, c *Checker, want [][]uint64) {
	t.Helper()
	for vn, dense := range want {
		row, lo := c.rRow(vn)
		first, last := -1, -1
		for i, w := range dense {
			if w != 0 {
				if first < 0 {
					first = i
				}
				last = i
			}
		}
		if lo != first || lo+len(row) != last+1 {
			t.Fatalf("%s: R row %d band is words [%d, %d), want [%d, %d]", name, vn, lo, lo+len(row), first, last)
		}
		for i, w := range row {
			if dense[lo+i] != w {
				t.Fatalf("%s: R row %d word %d = %#x, want %#x", name, vn, lo+i, w, dense[lo+i])
			}
		}
	}
}

// Banded R equals the dense closure bit for bit, for both strategies, on
// random graphs with self loops and on restart-shaped loopy functions of
// 512–8192 blocks, every third irreducible.
func TestBandedRMatchesDenseClosure(t *testing.T) {
	check := func(name string, g *cfg.Graph) {
		d := cfg.NewDFS(g)
		tree := dom.Iterative(g, d)
		want := denseR(g, d, tree)
		for _, s := range []Strategy{StrategyPropagate, StrategyExact} {
			checkBandsMatchDense(t, fmt.Sprintf("%s, %v", name, s), NewFrom(g, d, tree, Options{Strategy: s}), want)
		}
	}
	rng := rand.New(rand.NewSource(107))
	shape := graphgen.Config{
		MinNodes: 2, MaxNodes: 300, ExtraEdgeFactor: 1.6, BackEdgeProb: 0.4, AllowSelfLoops: true,
	}
	for trial := 0; trial < 60; trial++ {
		if trial%2 == 0 {
			check(fmt.Sprintf("random %d", trial), graphgen.Random(rng, shape))
		} else {
			check(fmt.Sprintf("reducible %d", trial), graphgen.RandomReducible(rng, shape))
		}
	}
	for i, blocks := range []int{512, 1024, 2048, 4096, 8192} {
		check(fmt.Sprintf("gen %d blocks", blocks), genFunc(t, blocks, 7001+int64(i)*6151, i%3 == 0))
	}
}

// figure3 builds the CFG of the paper's Figure 3 (nodes renumbered to
// 0-based: paper node k is node k-1 here). The narrative fixes the
// essential shape: back edges (10,8), (6,5), (7,2) in paper numbering,
// the path 4,5,6,7,2,3,8 and the cross edge 9→6. Variables: w defined at 2
// and used at 4, x defined at 3 and used at 9, y defined at 3 and used
// at 5 (paper numbering).
func figure3() *cfg.Graph {
	g := cfg.NewGraph(11)
	edge := func(s, t int) { g.AddEdge(s-1, t-1) } // paper numbering
	edge(1, 2)
	edge(2, 3)
	edge(3, 4)
	edge(3, 8)
	edge(4, 5)
	edge(5, 6)
	edge(6, 7)
	edge(6, 5) // back edge
	edge(7, 2) // back edge
	edge(8, 9)
	edge(9, 10)
	edge(10, 8) // back edge
	edge(9, 6)  // cross edge
	edge(2, 11)
	return g
}

func TestFigure3(t *testing.T) {
	g := figure3()
	node := func(k int) int { return k - 1 } // paper numbering helper
	for _, o := range allOptions() {
		c := New(g, o)
		// The figure is deliberately irreducible: the cross edge 9→6 enters
		// the {5,6} loop below its header, giving the loop two entries.
		// That is why T_10 is not totally ordered by dominance (8 and 5 are
		// incomparable) — Lemma 3 only applies to reducible CFGs.
		if c.Reducible() {
			t.Fatalf("Figure 3 CFG should be irreducible (opts %+v)", o)
		}
		// "All back edge targets (8, 5, 2) are reachable from 10": T_10
		// must be exactly {10, 8, 5, 2}.
		tset := map[int]bool{}
		for _, v := range c.TSetNodes(node(10)) {
			tset[v+1] = true // back to paper numbering
		}
		for _, want := range []int{10, 8, 5, 2} {
			if !tset[want] {
				t.Fatalf("T_10 = %v missing %d (opts %+v)", tset, want, o)
			}
		}
		if o.Strategy == StrategyExact && len(tset) != 4 {
			t.Fatalf("exact T_10 = %v, want exactly {10,8,5,2}", tset)
		}

		// "the use of x at 9 is reduced reachable from node 8".
		if !c.RSet(node(8)).Has(c.Tree().Num[node(9)]) {
			t.Fatal("9 should be reduced-reachable from 8")
		}
		// But no use of x is reduced reachable from 10 itself.
		if c.RSet(node(10)).Has(c.Tree().Num[node(9)]) {
			t.Fatal("9 must not be reduced-reachable from 10")
		}

		defW, useW := node(2), []int{node(4)}
		defX, useX := node(3), []int{node(9)}
		defY, useY := node(3), []int{node(5)}

		// The paper's three worked queries at node 10 and the trap at 4.
		if !c.IsLiveIn(defX, useX, node(10)) {
			t.Fatalf("x should be live-in at 10 (opts %+v)", o)
		}
		if !c.IsLiveIn(defY, useY, node(10)) {
			t.Fatalf("y should be live-in at 10 (opts %+v)", o)
		}
		if c.IsLiveIn(defW, useW, node(10)) {
			t.Fatalf("w must not be live-in at 10 (opts %+v)", o)
		}
		if c.IsLiveIn(defX, useX, node(4)) {
			t.Fatalf("x must not be live-in at 4 (opts %+v)", o)
		}

		// Cross-check the whole figure against brute force.
		for _, v := range []struct {
			def  int
			uses []int
		}{{defW, useW}, {defX, useX}, {defY, useY}} {
			for q := 0; q < g.N(); q++ {
				if got, want := c.IsLiveIn(v.def, v.uses, q), bruteLiveIn(g, v.def, v.uses, q); got != want {
					t.Fatalf("fig3 live-in(def=%d,q=%d) = %v, want %v (opts %+v)", v.def, q, got, want, o)
				}
				if got, want := c.IsLiveOut(v.def, v.uses, q), bruteLiveOut(g, v.def, v.uses, q); got != want {
					t.Fatalf("fig3 live-out(def=%d,q=%d) = %v, want %v (opts %+v)", v.def, q, got, want, o)
				}
			}
		}
	}
}

// Theorem 2: on reducible CFGs, when a variable is live-in the unique
// deciding t dominates all other candidates — i.e. the first candidate in
// dominance-preorder already answers the query.
func TestTheorem2FirstCandidateDecides(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for trial := 0; trial < 40; trial++ {
		g := graphgen.RandomReducible(rng, graphgen.Config{
			MinNodes: 3, MaxNodes: 25, ExtraEdgeFactor: 1.2, BackEdgeProb: 0.5,
		})
		d := cfg.NewDFS(g)
		tree := dom.Iterative(g, d)
		fast := NewFrom(g, d, tree, Options{})                          // fast path on
		slow := NewFrom(g, d, tree, Options{NoReducibleFastPath: true}) // full loop
		n := g.N()
		for def := 0; def < n; def++ {
			if !tree.Reachable(def) {
				continue
			}
			var dominated []int
			for v := 0; v < n; v++ {
				if tree.Reachable(v) && tree.Dominates(def, v) {
					dominated = append(dominated, v)
				}
			}
			uses := []int{dominated[rng.Intn(len(dominated))]}
			for q := 0; q < n; q++ {
				if fast.IsLiveIn(def, uses, q) != slow.IsLiveIn(def, uses, q) {
					t.Fatalf("trial %d: Theorem 2 fast path diverges at def=%d q=%d", trial, def, q)
				}
				if fast.IsLiveOut(def, uses, q) != slow.IsLiveOut(def, uses, q) {
					t.Fatalf("trial %d: Theorem 2 fast path diverges (live-out) at def=%d q=%d", trial, def, q)
				}
			}
		}
	}
}

// The propagate strategy's post-filtered T sets must be subsets of the
// exact Definition 5 sets (extra candidates were filtered, redundant ones
// may be dropped), must always contain the node itself, and must never
// contain a node reduced-reachable from the owner (other than the owner).
func TestStrategySetRelationship(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for trial := 0; trial < 60; trial++ {
		g := graphgen.Random(rng, graphgen.Default)
		d := cfg.NewDFS(g)
		tree := dom.Iterative(g, d)
		exact := NewFrom(g, d, tree, Options{Strategy: StrategyExact})
		prop := NewFrom(g, d, tree, Options{Strategy: StrategyPropagate})
		for v := 0; v < g.N(); v++ {
			if !tree.Reachable(v) {
				continue
			}
			em := map[int]bool{}
			for _, x := range exact.TSetNodes(v) {
				em[x] = true
			}
			selfSeen := false
			for _, x := range prop.TSetNodes(v) {
				if x == v {
					selfSeen = true
					continue
				}
				if !em[x] {
					t.Fatalf("trial %d: T_%d: propagate element %d not in exact set", trial, v, x)
				}
				if prop.RSet(v).Has(tree.Num[x]) {
					t.Fatalf("trial %d: T_%d: propagate kept reduced-reachable %d", trial, v, x)
				}
			}
			if !selfSeen {
				t.Fatalf("trial %d: T_%d missing %d itself", trial, v, v)
			}
		}
	}
}

// The headline robustness property: precomputed data survives variable
// edits. Adding uses/defs (changing the query inputs) must need no
// re-analysis — i.e. the checker is oblivious to them by construction. We
// simulate by reusing one checker for many different variables and
// comparing against brute force computed fresh each time.
func TestPrecomputationIsVariableIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(105))
	g := graphgen.Random(rng, graphgen.Config{
		MinNodes: 20, MaxNodes: 20, ExtraEdgeFactor: 1.5, BackEdgeProb: 0.4,
	})
	d := cfg.NewDFS(g)
	tree := dom.Iterative(g, d)
	c := NewFrom(g, d, tree, Options{})
	for round := 0; round < 300; round++ {
		def := rng.Intn(g.N())
		if !tree.Reachable(def) {
			continue
		}
		var dominated []int
		for v := 0; v < g.N(); v++ {
			if tree.Reachable(v) && tree.Dominates(def, v) {
				dominated = append(dominated, v)
			}
		}
		uses := []int{dominated[rng.Intn(len(dominated))]}
		q := rng.Intn(g.N())
		if !tree.Reachable(q) {
			continue
		}
		if got, want := c.IsLiveIn(def, uses, q), bruteLiveIn(g, def, uses, q); got != want {
			t.Fatalf("round %d: live-in mismatch", round)
		}
	}
}

func TestUnreachableNodesNeverLive(t *testing.T) {
	g := cfg.NewGraph(5)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(3, 4) // island
	c := New(g, Options{})
	if c.IsLiveIn(3, []int{4}, 4) || c.IsLiveOut(3, []int{4}, 3) {
		t.Fatal("island nodes must not be live")
	}
	if c.IsLiveIn(0, []int{4}, 1) {
		t.Fatal("use on island must not make a variable live")
	}
	if c.RSet(3) != nil || c.TSetNodes(4) != nil {
		t.Fatal("island nodes should have no sets")
	}
}

func TestSelfLoopLiveOut(t *testing.T) {
	// def at 0, use at 1, 1 has a self loop: the variable is live-out at 1
	// through the loop and live-in at 1.
	g := cfg.NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 1)
	g.AddEdge(1, 2)
	for _, o := range allOptions() {
		c := New(g, o)
		if !c.IsLiveIn(0, []int{1}, 1) {
			t.Fatalf("live-in at self-loop use (opts %+v)", o)
		}
		if !c.IsLiveOut(0, []int{1}, 1) {
			t.Fatalf("live-out at self-loop use (opts %+v)", o)
		}
		if c.IsLiveIn(0, []int{1}, 2) || c.IsLiveOut(0, []int{1}, 2) {
			t.Fatalf("not live beyond last use (opts %+v)", o)
		}
	}
}

func TestLiveOutAtDefNode(t *testing.T) {
	g := cfg.NewGraph(3)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	c := New(g, Options{})
	// Use only at the def node: never live-out.
	if c.IsLiveOut(1, []int{1}, 1) {
		t.Fatal("use only at def: not live-out")
	}
	// Use strictly below: live-out at def node.
	if !c.IsLiveOut(1, []int{2}, 1) {
		t.Fatal("use below def: live-out at def")
	}
	// Not live anywhere above the def.
	if c.IsLiveIn(1, []int{2}, 0) || c.IsLiveOut(1, []int{2}, 0) {
		t.Fatal("must not be live above the def")
	}
}

// MemoryBytes is 8 bytes per R band word plus 4 bytes per value of the R
// index (n+1 offset, lo pairs) and of the CSR T arena (n+1 offsets and one
// entry per T_v member).
func TestMemoryBytesAndStrategyString(t *testing.T) {
	g := graphgen.Ladder(64)
	for _, st := range []Strategy{StrategyExact, StrategyPropagate} {
		c := New(g, Options{Strategy: st})
		n := c.DFS().NumReachable
		entries, words := 0, 0
		for v := 0; v < g.N(); v++ {
			entries += len(c.TSetNodes(v))
			row, _ := c.rRow(c.Tree().Num[v])
			words += len(row)
		}
		want := 8*words + 4*(2*(n+1)) + 4*(n+1+entries)
		if got := c.MemoryBytes(); got != want {
			t.Fatalf("%v: MemoryBytes %d, want %d (%d nodes, %d T entries)", st, got, want, n, entries)
		}
	}
	if StrategyExact.String() != "exact" || StrategyPropagate.String() != "propagate" {
		t.Fatal("strategy names wrong")
	}
}

// Adopt rejects every T arena the query walks could index out of range
// with, or misread, and adopts the arena a checker built.
func TestAdoptRejectsMalformedT(t *testing.T) {
	g := figure3()
	d := cfg.NewDFS(g)
	tree := dom.Iterative(g, d)
	built := NewFrom(g, d, tree, Options{})
	rIdx, rWords, good := built.Arenas()
	n := d.NumReachable
	if good[1] != 1 || good[n+1] != 0 || good[3]-good[2] < 2 {
		t.Fatalf("fixture: want row 0 = {0} and row 2 of two or more entries, arena %v", good)
	}
	for _, tc := range []struct {
		name string
		edit func(a []int32) []int32
		want string // error substring; "" = accepted
	}{
		{"built", func(a []int32) []int32 { return a }, ""},
		{"short", func(a []int32) []int32 { return a[:n] }, "at least"},
		{"offsets-start-off-zero", func(a []int32) []int32 { a[0] = 1; return a }, "start at 1"},
		{"offsets-decrease", func(a []int32) []int32 { a[1], a[2] = a[2], a[1]; return a }, "decrease"},
		{"offsets-overrun", func(a []int32) []int32 { a[1] = int32(len(a)); return a }, "decrease"},
		{"offsets-end-short", func(a []int32) []int32 { return a[:len(a)-1] }, "end at"},
		{"entry-out-of-range", func(a []int32) []int32 { a[len(a)-1] = int32(n); return a }, "holds node"},
		{"entry-negative", func(a []int32) []int32 { a[n+1] = -1; return a }, "not strictly increasing"},
		{"row-not-increasing", func(a []int32) []int32 { e := a[n+1:]; e[a[2]+1] = e[a[2]]; return a }, "not strictly increasing"},
		{"row-lacks-own-node", func(a []int32) []int32 { a[n+1] = 1; return a }, "lacks its own node"},
	} {
		arena := tc.edit(append([]int32(nil), good...))
		c, err := Adopt(g, d, tree, Options{}, rIdx, rWords, arena)
		switch {
		case tc.want == "" && err != nil:
			t.Fatalf("%s: valid arena rejected: %v", tc.name, err)
		case tc.want == "" && c.TSetNodes(9) == nil:
			t.Fatalf("%s: adopted checker has no T_10", tc.name)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Fatalf("%s: Adopt returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// Adopt rejects every banded-R index the membership test could index out
// of range with, and adopts the index a checker built, reading no R word
// (every R word of the adopted arena is poisoned).
func TestAdoptRejectsMalformedR(t *testing.T) {
	g := graphgen.Ladder(150)
	d := cfg.NewDFS(g)
	tree := dom.Iterative(g, d)
	built := NewFrom(g, d, tree, Options{})
	good, words, tArena := built.Arenas()
	n := d.NumReachable
	var wide int // a row whose band is narrower than the dense row, lo > 0
	for v := 0; v < n && wide == 0; v++ {
		if good[2*v+1] > 0 {
			wide = v
		}
	}
	if n <= 128 || wide == 0 {
		t.Fatalf("fixture: want over two words per row and a band starting past word 0, index %v", good)
	}
	for _, tc := range []struct {
		name string
		edit func(a []int32) []int32
		want string // error substring; "" = accepted
	}{
		{"built", func(a []int32) []int32 { return a }, ""},
		{"nil", func(a []int32) []int32 { return nil }, "holds 0 values"},
		{"short", func(a []int32) []int32 { return a[:len(a)-2] }, "holds"},
		{"offsets-start-off-zero", func(a []int32) []int32 { a[0] = 1; return a }, "start at 1"},
		{"offsets-decrease", func(a []int32) []int32 { a[2*wide+2] = a[2*wide] - 1; return a }, "decrease"},
		{"offsets-end-short", func(a []int32) []int32 { a[2*n]--; return a }, "ends with"},
		{"offsets-end-long", func(a []int32) []int32 { a[2*n]++; return a }, "ends with"},
		{"closing-lo", func(a []int32) []int32 { a[2*n+1] = 1; return a }, "ends with"},
		{"lo-negative", func(a []int32) []int32 { a[2*wide+1] = -1; return a }, "band"},
		{"band-past-row", func(a []int32) []int32 { a[2*wide+1] = int32((n + 63) / 64); return a }, "band"},
	} {
		idx := tc.edit(append([]int32(nil), good...))
		poisoned := make([]uint64, len(words))
		for i := range poisoned {
			poisoned[i] = ^uint64(0)
		}
		c, err := Adopt(g, d, tree, Options{}, idx, poisoned, tArena)
		switch {
		case tc.want == "" && err != nil:
			t.Fatalf("%s: valid index rejected: %v", tc.name, err)
		case tc.want == "" && !c.RSet(0).Has(n-1):
			t.Fatalf("%s: adopted checker does not read the adopted words", tc.name)
		case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
			t.Fatalf("%s: Adopt returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestDFSAndTreeAccessors(t *testing.T) {
	g := graphgen.Ladder(8)
	c := New(g, Options{})
	if c.DFS() == nil || c.Tree() == nil {
		t.Fatal("accessors must expose the analyses")
	}
}
