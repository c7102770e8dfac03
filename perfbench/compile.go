package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"fastliveness"
	"fastliveness/internal/cfg"
	"fastliveness/internal/core"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/destruct"
	"fastliveness/internal/dom"
	"fastliveness/internal/ir"
	"fastliveness/internal/pipeline"
	"fastliveness/internal/regalloc"
	"fastliveness/internal/ssa"
)

// compilePerBench is how many procedures of each SPEC2000 benchmark the
// compile corpus takes: 120 in all.
const compilePerBench = 12

func compileCorpus(opts options) ([]*ir.Func, float64, error) {
	perBench := compilePerBench
	if opts.tiny {
		perBench = 1
	}
	return setup(func() ([]*ir.Func, error) { return specProtos(opts.seed, perBench), nil })
}

func cloneAll(protos []*ir.Func) []*ir.Func {
	out := make([]*ir.Func, len(protos))
	for i, p := range protos {
		out[i] = ir.Clone(p)
	}
	return out
}

// counts are the deterministic work counts of one procedure's compile.
type counts struct{ queries, copies, spills, rebuilds int }

// compilePass drives every procedure through pipeline.Run, one call per
// procedure in the given order so each one's latency is observed, and
// returns the latencies in milliseconds by procedure. Reports that
// disagree with the counts of the checked run are wrong answers: the
// pipeline is deterministic.
func compilePass(protos []*ir.Func, order []int, refs []counts, r *report) []float64 {
	funcs := cloneAll(protos)
	lat := make([]float64, len(funcs))
	for _, i := range order {
		f := funcs[i]
		start := time.Now()
		rep, err := pipeline.Run([]*ir.Func{f}, pipeline.Config{})
		lat[i] = float64(time.Since(start).Nanoseconds()) / 1e6
		r.attempted++
		if err != nil {
			r.failed++
			continue
		}
		r.checked++
		if (counts{rep.Queries, rep.Copies, rep.Spills, rep.Rebuilds}) != refs[i] {
			r.wrong++
		}
	}
	return lat
}

func runCompile(opts options, r *report) error {
	protos, setupS, err := compileCorpus(opts)
	if err != nil {
		return err
	}
	refs, err := checkCompile(protos, r)
	if err != nil {
		return err
	}

	// Every pass runs the procedures in a fresh order, so each one's
	// samples fall at unrelated moments of the run and the host's faster
	// and slower spells spread evenly over the procedures.
	rng := rand.New(rand.NewSource(mix(opts.seed, 7)))
	samples := make([][]float64, len(protos))
	var allocBytes uint64
	passes := 0
	start := time.Now()
	for passes == 0 || time.Since(start).Seconds() < opts.seconds {
		a0 := allocated()
		for i, ms := range compilePass(protos, rng.Perm(len(protos)), refs, r) {
			samples[i] = append(samples[i], ms)
		}
		allocBytes += allocated() - a0
		passes++
	}

	// Each procedure's latency is the best decile of its samples.
	lats := make([]float64, len(protos))
	var sum float64
	for i, s := range samples {
		lats[i] = quiet(s)
		sum += lats[i]
	}
	r.set("setup_s", "s", setupS)
	r.set("throughput_per_s", "1/s", float64(len(protos))/(sum/1e3))
	r.set("latency_ms", "ms", quantile(lats, 0.5))
	r.set("tail_latency_ms", "ms", quantile(lats, 0.9))
	r.set("slow_latency_ms", "ms", quantile(lats, 1))
	r.set("alloc_kb_per_op", "KiB", float64(allocBytes)/float64(passes*len(protos))/1024)
	r.set("heap_mb", "MiB", liveHeapMB())
	runtime.KeepAlive(protos)
	return nil
}

// checkedOracle wraps the engine oracle of the checked run: it counts
// queries and compares every sampleEvery-th answer against a data-flow
// recompute of the function as it is at that moment.
type checkedOracle struct {
	o       *fastliveness.Oracle
	f       *ir.Func
	r       *report
	queries int
}

// sampleEvery spaces the checked run's data-flow comparisons; the query
// stream of one compile pass is ~30M long.
const sampleEvery = 1 << 14

func (c *checkedOracle) check(v *ir.Value, b *ir.Block, in, got bool) {
	c.queries++
	if c.queries%sampleEvery != 0 {
		return
	}
	df := dataflow.Analyze(c.f)
	want := df.IsLiveOut(v, b)
	if in {
		want = df.IsLiveIn(v, b)
	}
	c.r.checked++
	if got != want {
		c.r.wrong++
	}
}

func (c *checkedOracle) IsLiveIn(v *ir.Value, b *ir.Block) bool {
	got := c.o.IsLiveIn(v, b)
	c.check(v, b, true, got)
	return got
}

func (c *checkedOracle) IsLiveOut(v *ir.Value, b *ir.Block) bool {
	got := c.o.IsLiveOut(v, b)
	c.check(v, b, false, got)
	return got
}

// allocate is the pipeline's register-allocation step: regalloc.Run,
// doubling the budget until the function fits, as pipeline.DefaultPasses
// does. It returns the final allocation and the spills of every attempt.
func allocate(f *ir.Func, o regalloc.Oracle) (*regalloc.Allocation, int, error) {
	spills := 0
	for k := pipeline.DefaultRegs; ; k *= 2 {
		alloc, err := regalloc.Run(f, o, k)
		if errors.Is(err, regalloc.ErrTooFewRegisters) {
			if alloc != nil {
				spills += alloc.Stats.Spills
			}
			continue
		}
		if err != nil {
			return nil, spills, err
		}
		return alloc, spills + alloc.Stats.Spills, nil
	}
}

// checkCompile runs every procedure once outside the clock through the
// pipeline's pass chain with checks: sampled answers against data-flow,
// the output against ir.Verify and the allocation against
// regalloc.VerifyAllocation. It returns each procedure's counts, which
// every timed pipeline.Run must reproduce.
func checkCompile(protos []*ir.Func, r *report) ([]counts, error) {
	refs := make([]counts, len(protos))
	for i, p := range protos {
		f := ir.Clone(p)
		e := fastliveness.NewEngine(fastliveness.EngineConfig{})
		e.Add(f)
		ssa.Construct(f)
		destruct.Prepare(f)
		o, err := e.Oracle(f)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.Name, err)
		}
		co := &checkedOracle{o: o, f: f, r: r}
		st := destruct.Run(f, co, destruct.ModeCoalesce)
		alloc, spills, err := allocate(f, co)
		if err != nil {
			return nil, fmt.Errorf("compile %s: %w", p.Name, err)
		}
		r.checked += 2
		if ir.Verify(f) != nil {
			r.wrong++
		}
		if regalloc.VerifyAllocation(f, alloc) != nil {
			r.wrong++
		}
		refs[i] = counts{co.queries, st.Copies, spills, e.Rebuilds()}
	}
	return refs, nil
}

// timedOracle is the traced run's oracle: it times every query and folds
// the time into the current pass span.
type timedOracle struct {
	o       *fastliveness.Oracle
	queries int64
	ns      int64
}

func (t *timedOracle) IsLiveIn(v *ir.Value, b *ir.Block) bool {
	start := time.Now()
	ans := t.o.IsLiveIn(v, b)
	t.ns += time.Since(start).Nanoseconds()
	t.queries++
	return ans
}

func (t *timedOracle) IsLiveOut(v *ir.Value, b *ir.Block) bool {
	start := time.Now()
	ans := t.o.IsLiveOut(v, b)
	t.ns += time.Since(start).Nanoseconds()
	t.queries++
	return ans
}

// compileReconcileBound is the largest share of the traced compile total
// its phase self-times may leave unexplained.
const compileReconcileBound = 0.05

func traceCompile(opts options, r *report) error {
	protos, _, err := compileCorpus(opts)
	if err != nil {
		return err
	}
	refs, err := checkCompile(protos, r)
	if err != nil {
		return err
	}
	order := make([]int, len(protos))
	for i := range order {
		order[i] = i
	}
	start := time.Now()
	lat := compilePass(protos, order, refs, r)
	untraced := since(start)

	tr := newTracer(time.Now())
	ev := &engineEvents{}
	var queries, queryNs int64
	var copies, spills, rebuilds int
	for _, p := range protos {
		f := ir.Clone(p)
		e := fastliveness.NewEngine(fastliveness.EngineConfig{Tracer: ev})
		e.Add(f)
		root := tr.begin("compile.proc", -1)
		tr.call("ssa.construct", root, func() { ssa.Construct(f) })
		tr.call("destruct.split", root, func() { destruct.Prepare(f) })
		var o *fastliveness.Oracle
		tr.call("engine.oracle", root, func() { o, err = e.Oracle(f) })
		if err != nil {
			return fmt.Errorf("compile %s: %w", p.Name, err)
		}
		to := &timedOracle{o: o}
		id := tr.begin("destruct.run", root)
		copies += destruct.Run(f, to, destruct.ModeCoalesce).Copies
		tr.fold(id, to.ns)
		tr.end(id)
		queries, queryNs = queries+to.queries, queryNs+to.ns
		to.queries, to.ns = 0, 0

		id = tr.begin("regalloc.run", root)
		_, n, err := allocate(f, to)
		tr.fold(id, to.ns)
		tr.end(id)
		if err != nil {
			return fmt.Errorf("compile %s: %w", p.Name, err)
		}
		spills += n
		queries, queryNs = queries+to.queries, queryNs+to.ns
		tr.end(root)
		rebuilds += e.Rebuilds()
	}

	// The build's phases, replayed by calling each layer on the post-split
	// IR: what engine.build_ns consists of.
	for _, p := range protos {
		f := ir.Clone(p)
		ssa.Construct(f)
		destruct.Prepare(f)
		var g *cfg.Graph
		var d *cfg.DFS
		var tree *dom.Tree
		tr.call("ir.verify", -1, func() { err = ir.Verify(f) })
		if err != nil {
			return fmt.Errorf("compile %s: %w", p.Name, err)
		}
		tr.call("cfg.graph", -1, func() { g, _ = cfg.FromFunc(f) })
		tr.call("cfg.dfs", -1, func() { d = cfg.NewDFS(g) })
		tr.call("dom.tree", -1, func() { tree = dom.Iterative(g, d) })
		tr.call("core.precompute", -1, func() { core.NewFrom(g, d, tree, core.Options{}) })
	}

	total := tr.totalNs("compile.proc")
	phases := tr.selfNs("ssa.construct") + tr.selfNs("destruct.split") + tr.selfNs("engine.oracle") +
		tr.selfNs("destruct.run") + tr.selfNs("regalloc.run") + float64(queryNs)
	sorted := append([]float64(nil), lat...)
	sort.Float64s(sorted)
	var latSum float64
	for _, ms := range lat {
		latSum += ms
	}

	setLayerDefaults(r)
	r.set("ssa.construct_ns", "ns", tr.selfNs("ssa.construct"))
	r.set("destruct.split_ns", "ns", tr.selfNs("destruct.split"))
	r.set("destruct.self_ns", "ns", tr.selfNs("destruct.run"))
	r.set("destruct.copies", "count", float64(copies))
	r.set("regalloc.self_ns", "ns", tr.selfNs("regalloc.run"))
	r.set("regalloc.spills", "count", float64(spills))
	r.set("engine.queries", "count", float64(queries))
	r.set("engine.query_ns", "ns", float64(queryNs))
	r.set("engine.builds", "count", float64(ev.builds.Load()))
	r.set("engine.build_ns", "ns", float64(ev.buildNs.Load()))
	r.set("engine.rebuilds", "count", float64(rebuilds))
	r.set("ir.verify_ns", "ns", tr.selfNs("ir.verify"))
	r.set("cfg.graph_ns", "ns", tr.selfNs("cfg.graph"))
	r.set("cfg.dfs_ns", "ns", tr.selfNs("cfg.dfs"))
	r.set("dom.tree_ns", "ns", tr.selfNs("dom.tree"))
	r.set("core.precompute_ns", "ns", tr.selfNs("core.precompute"))
	r.set("compile.top2_share", "ratio", (sorted[len(sorted)-1]+sorted[max(len(sorted)-2, 0)])/latSum)
	setReconcile(r, total, phases, compileReconcileBound, total, untraced)
	return writeTrace(opts, tr)
}
