// Benchmarks regenerating the paper's evaluation (§6), one family per table
// or figure, plus the ablations DESIGN.md calls out. cmd/benchtables
// produces the paper-formatted tables; these testing.B entry points measure
// the same primitives under the standard Go harness:
//
//	BenchmarkTable2_*        — Table 2's four measured quantities
//	BenchmarkFigure3_*       — the worked example's queries
//	BenchmarkScaling_*       — the §6.1/§8 quadratic-precomputation series
//	BenchmarkQueryVsUses_*   — §6.1: query cost tracks def-use chain length
//	BenchmarkAblation*       — §4.1/§5.1/Thm. 2/§6.1 design choices
//	BenchmarkLiveSets_*      — extension E1: full-set engines compared
package fastliveness_test

import (
	"fmt"
	"sync"
	"testing"

	"fastliveness"
	"fastliveness/internal/bench"
	"fastliveness/internal/cfg"
	"fastliveness/internal/core"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/destruct"
	"fastliveness/internal/dom"
	"fastliveness/internal/gen"
	"fastliveness/internal/graphgen"
	"fastliveness/internal/ir"
	"fastliveness/internal/lao"
	"fastliveness/internal/loops"
	"fastliveness/internal/ssa"

	"math/rand"
)

// ---- shared corpus samples (built once) ----

var (
	corpusOnce sync.Once
	corpora    map[string]*bench.Corpus
)

func corpus(b *testing.B, name string) *bench.Corpus {
	b.Helper()
	corpusOnce.Do(func() {
		corpora = map[string]*bench.Corpus{}
		for _, n := range []string{"164.gzip", "186.crafty"} {
			corpora[n] = bench.BuildCorpus(gen.SpecByName(n), 25)
		}
	})
	c := corpora[name]
	if c == nil {
		b.Fatalf("no corpus %q", name)
	}
	return c
}

// ---- Table 2: precomputation ----

func BenchmarkTable2_PrecomputeNative(b *testing.B) {
	for _, name := range []string{"164.gzip", "186.crafty"} {
		b.Run(name, func(b *testing.B) {
			procs := corpus(b, name).Procs
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lao.Analyze(procs[i%len(procs)].F, lao.Options{PhiRelatedOnly: true})
			}
		})
	}
}

func BenchmarkTable2_PrecomputeNew(b *testing.B) {
	for _, name := range []string{"164.gzip", "186.crafty"} {
		b.Run(name, func(b *testing.B) {
			procs := corpus(b, name).Procs
			type pre struct {
				g    *cfg.Graph
				d    *cfg.DFS
				tree *dom.Tree
			}
			pres := make([]pre, len(procs))
			for i, p := range procs {
				g, _ := cfg.FromFunc(p.F)
				d := cfg.NewDFS(g)
				pres[i] = pre{g, d, dom.Iterative(g, d)}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p := pres[i%len(pres)]
				core.NewFrom(p.g, p.d, p.tree, core.Options{})
			}
		})
	}
}

// ---- Table 2: queries (the SSA-destruction stream) ----

func queryStream(b *testing.B, name string) ([]bench.Query, *bench.Corpus) {
	b.Helper()
	c := corpus(b, name)
	var qs []bench.Query
	for _, p := range c.Procs {
		for _, q := range bench.RecordQueries(p) {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		b.Skip("no queries in sample")
	}
	return qs, c
}

func BenchmarkTable2_QueryNative(b *testing.B) {
	for _, name := range []string{"164.gzip", "186.crafty"} {
		b.Run(name, func(b *testing.B) {
			qs, c := queryStream(b, name)
			oracle := map[*ir.Func]*lao.Result{}
			for _, p := range c.Procs {
				oracle[p.F] = lao.Analyze(p.F, lao.Options{PhiRelatedOnly: true})
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				oracle[q.V.Block.Func].IsLiveOut(q.V, q.B)
			}
		})
	}
}

func BenchmarkTable2_QueryNew(b *testing.B) {
	for _, name := range []string{"164.gzip", "186.crafty"} {
		b.Run(name, func(b *testing.B) {
			qs, c := queryStream(b, name)
			oracle := map[*ir.Func]*fastliveness.Liveness{}
			for _, p := range c.Procs {
				l, err := fastliveness.Analyze(p.F, fastliveness.Config{})
				if err != nil {
					b.Fatal(err)
				}
				oracle[p.F] = l
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				oracle[q.V.Block.Func].IsLiveOut(q.V, q.B)
			}
		})
	}
}

// ---- Figure 3: the worked example ----

func figure3Graph() *cfg.Graph {
	g := cfg.NewGraph(11)
	edge := func(s, t int) { g.AddEdge(s-1, t-1) }
	edge(1, 2)
	edge(2, 3)
	edge(3, 4)
	edge(3, 8)
	edge(4, 5)
	edge(5, 6)
	edge(6, 7)
	edge(6, 5)
	edge(7, 2)
	edge(8, 9)
	edge(9, 10)
	edge(10, 8)
	edge(9, 6)
	edge(2, 11)
	return g
}

func BenchmarkFigure3_Queries(b *testing.B) {
	g := figure3Graph()
	c := core.New(g, core.Options{})
	defX, usesX, q10, q4 := 2, []int{8}, 9, 3
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.IsLiveIn(defX, usesX, q10) // true, two T candidates
		c.IsLiveIn(defX, usesX, q4)  // false
	}
}

func BenchmarkFigure3_Precompute(b *testing.B) {
	g := figure3Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		core.New(g, core.Options{})
	}
}

// ---- §6.1/§8: scaling series (quadratic precomputation) ----

func BenchmarkScaling_Precompute(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096} {
		b.Run(fmt.Sprintf("blocks=%d", n), func(b *testing.B) {
			c := gen.Default(int64(n) * 1911)
			c.TargetBlocks = n
			f := gen.Generate("scale", c)
			ssa.Construct(f)
			g, _ := cfg.FromFunc(f)
			d := cfg.NewDFS(g)
			tree := dom.Iterative(g, d)
			var mem int
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ck := core.NewFrom(g, d, tree, core.Options{})
				mem = ck.MemoryBytes()
			}
			b.ReportMetric(float64(mem), "set-bytes")
			b.ReportMetric(float64(len(f.Blocks)), "actual-blocks")
		})
	}
}

// ---- §6.1: query cost tracks the def-use chain length ----

func BenchmarkQueryVsUses(b *testing.B) {
	// A chain of 80 if/else diamonds: cond_i -> {then_i, else_i} -> cond_i+1.
	// Uses sit in the first 64 then-branches; queries run from late
	// diamonds, where none of the uses is reachable any more. Such
	// negative queries walk the whole def-use chain (Algorithm 3's inner
	// loop), so their cost tracks the chain length — the effect §6.1's
	// use-count statistics are about.
	const m = 80
	g := cfg.NewGraph(1 + 3*m)
	cond := func(i int) int { return 1 + 3*i }
	then := func(i int) int { return 2 + 3*i }
	els := func(i int) int { return 3 + 3*i }
	g.AddEdge(0, cond(0))
	for i := 0; i < m; i++ {
		g.AddEdge(cond(i), then(i))
		g.AddEdge(cond(i), els(i))
		if i+1 < m {
			g.AddEdge(then(i), cond(i+1))
			g.AddEdge(els(i), cond(i+1))
		}
	}
	d := cfg.NewDFS(g)
	tree := dom.Iterative(g, d)
	ck := core.NewFrom(g, d, tree, core.Options{})
	for _, k := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("uses=%d", k), func(b *testing.B) {
			uses := make([]int, k)
			for i := range uses {
				uses[i] = then(i)
			}
			var qs []int
			for i := 70; i < m; i++ {
				for _, q := range []int{cond(i), then(i), els(i)} {
					if ck.IsLiveIn(0, uses, q) {
						b.Fatal("query unexpectedly positive")
					}
					qs = append(qs, q)
				}
			}
			b.ResetTimer()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ck.IsLiveIn(0, uses, qs[i%len(qs)])
			}
		})
	}
}

// ---- Ablations ----

// benchQueriesWithOptions measures random live-in queries on a fixed graph
// population under the given checker options.
func benchQueriesWithOptions(b *testing.B, reducible bool, opts core.Options) {
	rng := rand.New(rand.NewSource(23))
	type instance struct {
		ck   *core.Checker
		def  int
		uses []int
		qs   []int
	}
	var insts []instance
	for i := 0; i < 12; i++ {
		var g *cfg.Graph
		shape := graphgen.Config{MinNodes: 60, MaxNodes: 120, ExtraEdgeFactor: 1.6, BackEdgeProb: 0.4}
		if reducible {
			g = graphgen.RandomReducible(rng, shape)
		} else {
			g = graphgen.Random(rng, shape)
		}
		d := cfg.NewDFS(g)
		tree := dom.Iterative(g, d)
		ck := core.NewFrom(g, d, tree, opts)
		var dominated []int
		for v := 1; v < g.N(); v++ {
			if tree.Reachable(v) {
				dominated = append(dominated, v)
			}
		}
		if len(dominated) < 4 {
			continue
		}
		insts = append(insts, instance{
			ck:   ck,
			def:  0,
			uses: []int{dominated[len(dominated)/3], dominated[len(dominated)/2]},
			qs:   dominated,
		})
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		in := insts[i%len(insts)]
		in.ck.IsLiveIn(in.def, in.uses, in.qs[i%len(in.qs)])
	}
}

// Ablation A2 (§5.1): skipping dominated subtrees during the T_q walk.
// Irreducible graphs exercise multi-candidate walks.
func BenchmarkAblationSkipSubtrees(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		benchQueriesWithOptions(b, false, core.Options{NoReducibleFastPath: true})
	})
	b.Run("off", func(b *testing.B) {
		benchQueriesWithOptions(b, false, core.Options{NoReducibleFastPath: true, NoSkipSubtrees: true})
	})
}

// Ablation A3 (Theorem 2): the reducible single-test fast path.
func BenchmarkAblationReducibleFastPath(b *testing.B) {
	b.Run("on", func(b *testing.B) {
		benchQueriesWithOptions(b, true, core.Options{})
	})
	b.Run("off", func(b *testing.B) {
		benchQueriesWithOptions(b, true, core.Options{NoReducibleFastPath: true})
	})
}

// Ablation A1: exact Definition 5 vs the §5.2 propagation scheme
// (precomputation cost; answers are identical).
func BenchmarkAblationStrategy(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	g := graphgen.Random(rng, graphgen.Config{
		MinNodes: 300, MaxNodes: 300, ExtraEdgeFactor: 1.6, BackEdgeProb: 0.35,
	})
	d := cfg.NewDFS(g)
	tree := dom.Iterative(g, d)
	for _, s := range []core.Strategy{core.StrategyExact, core.StrategyPropagate} {
		b.Run(s.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				core.NewFrom(g, d, tree, core.Options{Strategy: s})
			}
		})
	}
}

// ---- Extension E1: full live-set engines ----

func BenchmarkLiveSets(b *testing.B) {
	c := gen.Default(404)
	c.TargetBlocks = 120
	f := gen.Generate("sets", c)
	ssa.Construct(f)
	b.Run("dataflow", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			dataflow.Analyze(f)
		}
	})
	b.Run("lao", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			lao.Analyze(f, lao.Options{})
		}
	})
	b.Run("loopforest", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := loops.Liveness(f); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- End-to-end: the whole destruction pass under each oracle ----

func BenchmarkDestructionEndToEnd(b *testing.B) {
	c := gen.Default(808)
	c.TargetBlocks = 60
	base := gen.Generate("destr", c)
	ssa.Construct(base)
	destruct.Prepare(base)
	b.Run("checker-oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := ir.Clone(base)
			live, err := fastliveness.Analyze(f, fastliveness.Config{})
			if err != nil {
				b.Fatal(err)
			}
			destruct.Run(f, oracleFunc(live.IsLiveOut), destruct.ModeCoalesce)
		}
	})
	b.Run("dataflow-oracle", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := ir.Clone(base)
			r := dataflow.Analyze(f)
			destruct.Run(f, oracleFunc(r.IsLiveOut), destruct.ModeCoalesce)
		}
	})
	b.Run("methodI-no-queries", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			f := ir.Clone(base)
			destruct.Run(f, oracleFunc(nil), destruct.ModeMethodI)
		}
	})
}

type oracleFunc func(*ir.Value, *ir.Block) bool

func (o oracleFunc) IsLiveOut(v *ir.Value, b *ir.Block) bool { return o(v, b) }
