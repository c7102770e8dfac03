package core

import (
	"math/rand"
	"testing"

	"fastliveness/internal/cfg"
	"fastliveness/internal/dom"
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
				for _, sortedT := range []bool{false, true} {
					out = append(out, Options{
						Strategy:            strat,
						NoSkipSubtrees:      noSkip,
						NoReducibleFastPath: noFast,
						SortedT:             sortedT,
					})
				}
			}
		}
	}
	return out
}

// checkGraphAgainstBrute exhaustively compares the checker with the brute
// force on every valid (def, uses, q) combination for a few random
// variables.
func checkGraphAgainstBrute(t *testing.T, g *cfg.Graph, rng *rand.Rand, trial int) {
	t.Helper()
	d := cfg.NewDFS(g)
	tree := dom.Iterative(g, d)
	checkers := make([]*Checker, 0, 16)
	for _, o := range allOptions() {
		checkers = append(checkers, NewFrom(g, d, tree, o))
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

func TestMemoryBytesAndStrategyString(t *testing.T) {
	g := graphgen.Ladder(64)
	cBit := New(g, Options{})
	cSorted := New(g, Options{SortedT: true})
	if cBit.MemoryBytes() <= 0 || cSorted.MemoryBytes() <= 0 {
		t.Fatal("memory accounting broken")
	}
	// T as sorted arrays must be smaller than T as bitsets on this shape
	// (few back edges).
	if cSorted.MemoryBytes() >= cBit.MemoryBytes() {
		t.Fatalf("sorted T should save memory: %d vs %d", cSorted.MemoryBytes(), cBit.MemoryBytes())
	}
	if StrategyExact.String() != "exact" || StrategyPropagate.String() != "propagate" {
		t.Fatal("strategy names wrong")
	}
}

func TestDFSAndTreeAccessors(t *testing.T) {
	g := graphgen.Ladder(8)
	c := New(g, Options{})
	if c.DFS() == nil || c.Tree() == nil {
		t.Fatal("accessors must expose the analyses")
	}
}
