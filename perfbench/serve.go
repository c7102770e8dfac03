package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"fastliveness"
	"fastliveness/internal/backend"
	"fastliveness/internal/bench"
	"fastliveness/internal/core"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/ir"
	"fastliveness/internal/lao"
)

// Serve traffic shape: 2 closed-loop clients, a benign instruction edit
// of the function being queried every instrEditEvery queries, and a CFG
// edit every cfgEditEvery queries — rare enough that the rebuilds they
// force sit outside p99, frequent enough to sit inside p999. CFG edits go
// to the client's functions in turn, not to the one being queried, so
// edit traffic is spread over the program independently of query traffic.
const (
	serveClients    = 2
	instrEditEvery  = 64
	cfgEditEvery    = 512
	sampleQueryStep = 1 << 12 // every that many queries a client keeps its answer for checking
	sampleCap       = 1 << 11 // answers kept per client
	serveWindows    = 50      // a timed run is measured in that many windows
)

// served is one function of the serve workload with its query stream and
// edit targets.
type served struct {
	stream
	o     *fastliveness.Oracle
	editV *ir.Value // the benign edit copies this value
	cfgB  *ir.Block // the CFG edit splits and restores cfgB.Succs[0]; nil if no block has successors
}

// serveState is the serve workload after set-up: the engine pre-warmed
// over the whole corpus and each client's share of the functions.
type serveState struct {
	e       *fastliveness.Engine
	funcs   []*served
	clients [serveClients][]*served
	// cfgStart is where each client's round of CFG edits begins.
	cfgStart [serveClients]int
}

func buildServe(opts options, tracer *engineEvents) (*serveState, error) {
	perBench := 0
	if opts.tiny {
		perBench = 3
	}
	streams := serveCorpus(opts.seed, perBench)
	cfg := fastliveness.EngineConfig{}
	if tracer != nil {
		cfg.Tracer = tracer
	}
	s := &serveState{e: fastliveness.NewEngine(cfg)}
	for _, st := range streams {
		s.e.Add(st.f)
	}
	if err := s.e.Precompute(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(mix(opts.seed, 512)))
	for i, st := range streams {
		o, err := s.e.Oracle(st.f)
		if err != nil {
			return nil, err
		}
		sv := &served{stream: st, o: o, editV: st.qs[0].V}
		var branching []*ir.Block
		for _, b := range st.f.Blocks {
			if len(b.Succs) > 0 {
				branching = append(branching, b)
			}
		}
		if len(branching) > 0 {
			sv.cfgB = branching[rng.Intn(len(branching))]
		}
		s.funcs = append(s.funcs, sv)
		// Clients own alternating functions: disjoint halves of equal mix.
		s.clients[i%serveClients] = append(s.clients[i%serveClients], sv)
	}
	for i, fs := range s.clients {
		if len(fs) > 0 {
			s.cfgStart[i] = rng.Intn(len(fs))
		}
	}
	return s, nil
}

// sample is one answer a client kept for checking after the run.
type sample struct {
	sv  *served
	q   bench.Query
	ans bool
}

// client is one closed-loop query issuer's state and tallies.
type client struct {
	funcs []*served
	// wins holds the latencies of each window since the start; the last
	// one is being filled until winEnd.
	wins    []*latencies
	window  time.Duration
	winEnd  time.Time
	samples []sample
	queries int64
	instr   int64
	cfg     int64
	editNs  int64
	queryNs int64
	busyNs  int64 // from the start until the client stopped
	// untilInstr and untilCFG count down to the next edit; nextCFG is the
	// function the next CFG edit goes to.
	untilInstr, untilCFG, nextCFG int
	tr                            *tracer // non-nil in the traced pass
}

func newClient(funcs []*served, cfgStart int, start time.Time, window time.Duration) *client {
	return &client{funcs: funcs, untilInstr: instrEditEvery, untilCFG: cfgEditEvery, nextCFG: cfgStart,
		wins: []*latencies{{}}, window: window, winEnd: start.Add(window)}
}

// replay answers sv's stream through the engine oracle, editing on
// schedule. A query's latency is the time from the previous answer (or
// edit) to its own: one clock read per query, so the clock — slow on
// virtual machines — inflates samples as little as it can. replay returns
// false once the deadline passed (checked every 256 queries); a zero
// deadline replays the whole stream.
func (c *client) replay(e *fastliveness.Engine, sv *served, deadline time.Time) bool {
	root := -1
	var queryNs int64
	if c.tr != nil {
		root = c.tr.begin("serve.stream", -1)
	}
	defer func() {
		c.queryNs += queryNs
		if root >= 0 {
			c.tr.fold(root, queryNs)
			c.tr.end(root)
		}
	}()
	prev := time.Now()
	for _, q := range sv.qs {
		if c.untilCFG--; c.untilCFG == 0 {
			c.untilCFG = cfgEditEvery
			target := c.funcs[c.nextCFG]
			c.nextCFG = (c.nextCFG + 1) % len(c.funcs)
			if target.cfgB != nil {
				prev = c.edit(e, target, root, func() { cfgEdit(target.cfgB, 0) })
				c.cfg++
			}
		}
		if c.untilInstr--; c.untilInstr == 0 {
			c.untilInstr = instrEditEvery
			prev = c.edit(e, sv, root, func() { benignEdit(sv.editV) })
			c.instr++
		}
		ans := sv.o.IsLiveOut(q.V, q.B)
		end := time.Now()
		ns := end.Sub(prev).Nanoseconds()
		prev = end
		for end.After(c.winEnd) {
			c.wins = append(c.wins, &latencies{})
			c.winEnd = c.winEnd.Add(c.window)
		}
		c.wins[len(c.wins)-1].add(ns)
		queryNs += ns
		c.queries++
		if c.queries%sampleQueryStep == 0 && len(c.samples) < sampleCap {
			c.samples = append(c.samples, sample{sv, q, ans})
		}
		if c.queries%256 == 0 && !deadline.IsZero() && end.After(deadline) {
			return false
		}
	}
	return true
}

// edit applies fn to sv's function through Engine.Edit, timed, and as an
// "engine.edit" span under root in the traced pass. It returns the time
// the edit ended.
func (c *client) edit(e *fastliveness.Engine, sv *served, root int, fn func()) time.Time {
	id := -1
	if root >= 0 {
		id = c.tr.begin("engine.edit", root)
	}
	t := time.Now()
	e.Edit(sv.f, fn)
	end := time.Now()
	c.editNs += end.Sub(t).Nanoseconds()
	if id >= 0 {
		c.tr.end(id)
	}
	return end
}

// runClients replays the streams from serveClients goroutines. With a
// positive duration each client cycles through its functions until the
// deadline; otherwise each replays every one of its streams once.
func (s *serveState) runClients(d time.Duration, traced bool) []*client {
	cs := make([]*client, serveClients)
	start := time.Now()
	var deadline time.Time
	window := time.Duration(math.MaxInt64)
	if d > 0 {
		deadline = start.Add(d)
		window = d / serveWindows
	}
	var wg sync.WaitGroup
	for i := range cs {
		c := newClient(s.clients[i], s.cfgStart[i], start, window)
		if traced {
			c.tr = newTracer(start)
		}
		cs[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() { c.busyNs = time.Since(start).Nanoseconds() }()
			for {
				for _, sv := range c.funcs {
					if !c.replay(s.e, sv, deadline) {
						return
					}
				}
				if deadline.IsZero() {
					return
				}
			}
		}()
	}
	wg.Wait()
	return cs
}

// checkServe re-checks the clients' kept answers, and a fresh oracle's
// answers on a fixed sample of functions, against a data-flow analysis of
// the current IR. The edits are benign, so the IR every kept answer was
// given against is the IR now.
func checkServe(s *serveState, cs []*client, r *report) {
	dfs := map[*ir.Func]*dataflow.Result{}
	df := func(f *ir.Func) *dataflow.Result {
		if d, ok := dfs[f]; ok {
			return d
		}
		d := dataflow.Analyze(f)
		dfs[f] = d
		return d
	}
	for _, c := range cs {
		for _, sm := range c.samples {
			r.checked++
			if df(sm.sv.f).IsLiveOut(sm.q.V, sm.q.B) != sm.ans {
				r.wrong++
			}
		}
	}
	for i := 0; i < len(s.funcs); i += 97 {
		sv := s.funcs[i]
		o, err := s.e.Oracle(sv.f)
		if err != nil {
			r.failed++
			continue
		}
		for j, q := range sv.qs {
			if j == 8 {
				break
			}
			r.checked++
			if df(sv.f).IsLiveOut(q.V, q.B) != o.IsLiveOut(q.V, q.B) {
				r.wrong++
			}
		}
	}
}

func runServe(opts options, r *report) error {
	s, setupS, err := setup(func() (*serveState, error) { return buildServe(opts, nil) })
	if err != nil {
		return err
	}
	d := time.Duration(opts.seconds * float64(time.Second))
	a0 := allocated()
	cs := s.runClients(d, false)
	allocBytes := allocated() - a0

	// Each metric is taken per window, over the windows both clients
	// completed, and reported as the best decile over the windows.
	window := (d / serveWindows).Seconds()
	var queries int64
	for _, c := range cs {
		queries += c.queries
	}
	var qps, p50, p99, p999 []float64
	for w := 0; ; w++ {
		complete := true
		for _, c := range cs {
			complete = complete && w+1 < len(c.wins) // a client's last window is partial
		}
		if !complete {
			break
		}
		var lat latencies
		for _, c := range cs {
			lat.merge(c.wins[w])
		}
		qps = append(qps, float64(lat.n)/window)
		p50 = append(p50, lat.interpolated(0.5)/1e6)
		p99 = append(p99, lat.interpolated(0.99)/1e6)
		p999 = append(p999, lat.interpolated(0.999)/1e6)
	}
	if len(qps) == 0 {
		return fmt.Errorf("serve: ran no complete window")
	}
	r.attempted += queries
	checkServe(s, cs, r)
	r.set("setup_s", "s", setupS)
	r.set("throughput_per_s", "1/s", quantile(qps, 0.9))
	r.set("latency_ms", "ms", quiet(p50))
	r.set("tail_latency_ms", "ms", quiet(p99))
	r.set("slow_latency_ms", "ms", quiet(p999))
	r.set("alloc_kb_per_op", "KiB", float64(allocBytes)/float64(queries)/1024)
	r.set("heap_mb", "MiB", liveHeapMB())
	runtime.KeepAlive(s)
	return nil
}

// serveReconcileBound is the largest share of the traced serve total
// (the clients' summed busy time) its phases — oracle queries and edits — may
// leave unexplained.
const serveReconcileBound = 0.15

func traceServe(opts options, r *report) error {
	ev := &engineEvents{}
	s, err := buildServe(opts, ev)
	if err != nil {
		return err
	}
	var untraced float64
	for _, c := range s.runClients(0, false) {
		untraced += float64(c.busyNs)
	}

	rebuilds0, builds0, buildNs0 := s.e.Rebuilds(), ev.builds.Load(), ev.buildNs.Load()
	cs := s.runClients(0, true)
	tr := newTracer(time.Time{})
	var queries, queryNs, editNs, instr, cfgEdits int64
	for _, c := range cs {
		tr.absorb(c.tr)
		queries += c.queries
		queryNs += c.queryNs
		editNs += c.editNs
		instr += c.instr
		cfgEdits += c.cfg
	}
	r.attempted += queries
	checkServe(s, cs, r)
	var total float64
	for _, c := range cs {
		total += float64(c.busyNs)
	}

	setLayerDefaults(r)
	r.set("engine.queries", "count", float64(queries))
	r.set("engine.oracle_ns", "ns", float64(queryNs))
	r.set("engine.edit_ns", "ns", float64(editNs))
	r.set("engine.edits_instr", "count", float64(instr))
	r.set("engine.edits_cfg", "count", float64(cfgEdits))
	r.set("engine.rebuilds", "count", float64(s.e.Rebuilds()-rebuilds0))
	r.set("engine.builds", "count", float64(ev.builds.Load()-builds0))
	r.set("engine.build_ns", "ns", float64(ev.buildNs.Load()-buildNs0))
	r.set("engine.resident_mb", "MiB", float64(s.e.MemoryBytes())/(1<<20))
	if err := decomposeQueries(s, r); err != nil {
		return err
	}
	setReconcile(r, total, float64(queryNs+editNs), serveReconcileBound, total, untraced)
	return writeTrace(opts, tr)
}

// decomposeQueries replays every stream through the layers one oracle
// query consists of — the staleness check (Liveness.Stale), the def-use
// walk (Prep.UseNodes) and the checker's test (core.Checker.IsLiveOut) —
// each timed as a whole loop, and through the paper's Table 2 pair: the
// checker's precompute and queries against LAO's (lao.Analyze over the
// φ-related variables). The checker's answers must match the engine's.
func decomposeQueries(s *serveState, r *report) error {
	var staleNs, useNs, liveNs float64
	var chkPre, laoPre, chkQ, laoQ float64
	var scratch []int
	for _, sv := range s.funcs {
		f, qs := sv.f, sv.qs
		live, err := s.e.Liveness(f)
		if err != nil {
			return err
		}
		t := time.Now()
		for range qs {
			live.Stale()
		}
		staleNs += since(t)

		prep, err := backend.Prepare(f)
		if err != nil {
			return err
		}
		t = time.Now()
		for _, q := range qs {
			scratch = prep.UseNodes(scratch, q.V)
		}
		useNs += since(t)

		off := make([]int, len(qs)+1)
		var flat []int
		for i, q := range qs {
			scratch = prep.UseNodes(scratch, q.V)
			flat = append(flat, scratch...)
			off[i+1] = len(flat)
		}
		t = time.Now()
		chk := core.NewFrom(prep.Graph, prep.DFS, prep.Tree, core.Options{})
		chkPre += since(t)
		ans := make([]bool, len(qs))
		t = time.Now()
		for i, q := range qs {
			ans[i] = chk.IsLiveOut(prep.Node(q.V.Block), flat[off[i]:off[i+1]], prep.Node(q.B))
		}
		liveNs += since(t)

		t = time.Now()
		native := lao.Analyze(f, lao.Options{PhiRelatedOnly: true})
		laoPre += since(t)
		t = time.Now()
		for _, q := range qs {
			native.IsLiveOut(q.V, q.B)
		}
		laoQ += since(t)
		t = time.Now()
		for _, q := range qs {
			live.IsLiveOut(q.V, q.B)
		}
		chkQ += since(t)

		for i, q := range qs {
			if i%64 != 0 {
				continue
			}
			r.checked++
			if ans[i] != live.IsLiveOut(q.V, q.B) {
				r.wrong++
			}
		}
	}
	r.set("engine.stale_ns", "ns", staleNs)
	r.set("backend.use_nodes_ns", "ns", useNs)
	r.set("core.is_live_ns", "ns", liveNs)
	r.set("paper.checker_precompute_ns", "ns", chkPre)
	r.set("paper.lao_precompute_ns", "ns", laoPre)
	r.set("paper.checker_query_ns", "ns", chkQ)
	r.set("paper.lao_query_ns", "ns", laoQ)
	r.set("paper.precompute_speedup", "ratio", laoPre/chkPre)
	r.set("paper.query_speedup", "ratio", laoQ/chkQ)
	if chkPre == 0 || chkQ == 0 {
		return fmt.Errorf("serve: empty corpus")
	}
	return nil
}
