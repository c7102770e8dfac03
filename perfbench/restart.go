package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastliveness"
	"fastliveness/internal/backend"
	"fastliveness/internal/core"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/ir"
	"fastliveness/internal/snapshot"
)

// restartFuncCount is the restart corpus size: 16 functions of 512 to
// 8192 blocks.
const restartFuncCount = 16

func restartCorpus(opts options) ([]*ir.Func, float64, error) {
	return setup(func() ([]*ir.Func, error) {
		return restartFuncs(opts.seed, restartFuncCount, opts.tiny), nil
	})
}

// startEngine opens a store handle on dir, as a new process would, and times
// Engine.Precompute over funcs with engine defaults: verification on,
// Parallelism = GOMAXPROCS, no rebuild workers.
func startEngine(dir string, funcs []*ir.Func, ev *engineEvents) (*fastliveness.Engine, *fastliveness.SnapshotStore, float64, error) {
	store, err := fastliveness.OpenSnapshotStore(dir, 0)
	if err != nil {
		return nil, nil, 0, err
	}
	cfg := fastliveness.EngineConfig{SnapshotStore: store}
	if ev != nil {
		cfg.Tracer = ev
	}
	e := fastliveness.NewEngine(cfg)
	e.Add(funcs...)
	runtime.GC()
	t := time.Now()
	err = e.Precompute()
	return e, store, since(t), err
}

// sweep is the first query pass after a start: for every block of every
// function, one live-out query about a value picked round-robin from the
// function's results. It touches every row of the precomputed matrices.
type sweep struct {
	f  *ir.Func
	vs []*ir.Value
}

func sweeps(funcs []*ir.Func) []sweep {
	out := make([]sweep, len(funcs))
	for i, f := range funcs {
		out[i].f = f
		f.Values(func(v *ir.Value) {
			if v.Op.HasResult() {
				out[i].vs = append(out[i].vs, v)
			}
		})
	}
	return out
}

// run answers the sweep through e's oracles and returns the answers and
// the time taken.
func runSweep(e *fastliveness.Engine, sw []sweep) ([]bool, float64, error) {
	var ans []bool
	t := time.Now()
	for _, s := range sw {
		o, err := e.Oracle(s.f)
		if err != nil {
			return nil, 0, err
		}
		for j, b := range s.f.Blocks {
			ans = append(ans, o.IsLiveOut(s.vs[j%len(s.vs)], b))
		}
	}
	return ans, since(t), nil
}

// cycle is one restart iteration's measurements.
type cycle struct {
	coldNs, warmNs, sweepNs float64
}

// restartCycle runs a cold start into the empty store coldDir, then a warm
// start on a fresh handle over warmDir (which the first cycle's cold start
// populated), then the first sweep. Failures count against r; answers of
// the warm sweep are checked against want.
func restartCycle(funcs []*ir.Func, sw []sweep, coldDir, warmDir string, want []bool, r *report, evCold, evWarm *engineEvents) (cycle, *fastliveness.Engine, error) {
	var c cycle
	n := int64(len(funcs))
	cold, _, ns, err := startEngine(coldDir, funcs, evCold)
	r.attempted++
	if st := cold.SnapshotStats(); err != nil || st.Misses != n || st.Stores != n {
		r.failed++
	}
	c.coldNs = ns
	cold.Close()

	warm, _, ns, err := startEngine(warmDir, funcs, evWarm)
	r.attempted++
	if st := warm.SnapshotStats(); err != nil || st.Hits != n {
		r.failed++
	}
	c.warmNs = ns
	ans, ns, err := runSweep(warm, sw)
	if err != nil {
		return c, nil, err
	}
	c.sweepNs = ns
	for i := range ans {
		r.checked++
		if ans[i] != want[i] {
			r.wrong++
		}
	}
	return c, warm, nil
}

// restartBaseline populates warmDir with a cold start and returns that
// engine's sweep answers, checked against data-flow on the two smallest
// functions.
func restartBaseline(funcs []*ir.Func, sw []sweep, warmDir string, r *report) ([]bool, error) {
	e, _, _, err := startEngine(warmDir, funcs, nil)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	want, _, err := runSweep(e, sw)
	if err != nil {
		return nil, err
	}
	i := 0
	for _, s := range sw {
		if len(s.f.Blocks) <= 1100 {
			df := dataflow.Analyze(s.f)
			for j, b := range s.f.Blocks {
				r.checked++
				if df.IsLiveOut(s.vs[j%len(s.vs)], b) != want[i+j] {
					r.wrong++
				}
			}
		}
		i += len(s.f.Blocks)
	}
	return want, nil
}

func runRestart(opts options, r *report) error {
	funcs, setupS, err := restartCorpus(opts)
	if err != nil {
		return err
	}
	sw := sweeps(funcs)
	warmDir := filepath.Join(opts.workDir, "warm")
	want, err := restartBaseline(funcs, sw, warmDir, r)
	if err != nil {
		return err
	}

	var cold, warm, first []float64
	var allocBytes uint64
	var last *fastliveness.Engine
	begin := time.Now()
	for i := 0; i == 0 || time.Since(begin).Seconds() < opts.seconds; i++ {
		coldDir := filepath.Join(opts.workDir, fmt.Sprint("cold", i))
		last = nil
		a0 := allocated()
		c, e, err := restartCycle(funcs, sw, coldDir, warmDir, want, r, nil, nil)
		allocBytes += allocated() - a0
		if err := os.RemoveAll(coldDir); err != nil {
			return err
		}
		if err != nil {
			return err
		}
		last = e
		cold = append(cold, c.coldNs/1e6)
		warm = append(warm, c.warmNs/1e6)
		first = append(first, (c.warmNs+c.sweepNs)/1e6)
	}
	heap := liveHeapMB()
	runtime.KeepAlive(last)

	starts := float64(2 * len(funcs))
	r.set("setup_s", "s", setupS)
	r.set("throughput_per_s", "1/s", starts/((quiet(cold)+quiet(warm))/1e3))
	r.set("latency_ms", "ms", quiet(warm))
	r.set("tail_latency_ms", "ms", quiet(first))
	r.set("slow_latency_ms", "ms", quiet(cold))
	r.set("alloc_kb_per_op", "KiB", float64(allocBytes)/float64(len(cold))/starts/1024)
	r.set("heap_mb", "MiB", heap)
	return nil
}

// restartReconcileBound is the largest share of the traced restart total
// (the engines' summed build time, cold and warm) the replayed phases may
// leave unexplained.
const restartReconcileBound = 0.25

func traceRestart(opts options, r *report) error {
	funcs, _, err := restartCorpus(opts)
	if err != nil {
		return err
	}
	sw := sweeps(funcs)
	warmDir := filepath.Join(opts.workDir, "warm")
	want, err := restartBaseline(funcs, sw, warmDir, r)
	if err != nil {
		return err
	}
	coldDir := filepath.Join(opts.workDir, "cold")
	c, _, err := restartCycle(funcs, sw, coldDir, warmDir, want, r, nil, nil)
	if err != nil {
		return err
	}
	untraced := c.coldNs + c.warmNs + c.sweepNs
	if err := os.RemoveAll(coldDir); err != nil {
		return err
	}

	evCold, evWarm := &engineEvents{}, &engineEvents{}
	c, warm, err := restartCycle(funcs, sw, coldDir, warmDir, want, r, evCold, evWarm)
	if err != nil {
		return err
	}
	if err := os.RemoveAll(coldDir); err != nil {
		return err
	}
	st := warm.SnapshotStats()
	tr := newTracer(time.Now())
	if err := replay(tr, funcs, coldDir, replayCold); err != nil {
		return err
	}
	if err := os.RemoveAll(coldDir); err != nil {
		return err
	}
	if err := replay(tr, funcs, warmDir, replayWarm); err != nil {
		return err
	}
	store, err := snapshot.Open(warmDir, 0)
	if err != nil {
		return err
	}

	setLayerDefaults(r)
	r.set("engine.builds", "count", float64(evCold.builds.Load()+evWarm.builds.Load()))
	r.set("engine.build_ns", "ns", float64(evCold.buildNs.Load()))
	r.set("engine.warm_build_ns", "ns", float64(evWarm.buildNs.Load()))
	r.set("engine.first_sweep_ns", "ns", c.sweepNs)
	r.set("engine.resident_mb", "MiB", float64(warm.MemoryBytes())/(1<<20))
	r.set("ir.verify_ns", "ns", tr.selfNs("ir.verify"))
	r.set("snapshot.probe_ns", "ns", tr.selfNs("snapshot.probe"))
	r.set("backend.prepare_ns", "ns", tr.selfNs("backend.prepare"))
	r.set("core.precompute_ns", "ns", tr.selfNs("core.precompute"))
	r.set("snapshot.capture_ns", "ns", tr.selfNs("snapshot.capture"))
	r.set("snapshot.encode_ns", "ns", tr.selfNs("snapshot.encode"))
	r.set("snapshot.save_ns", "ns", tr.selfNs("snapshot.save"))
	r.set("snapshot.stores", "count", float64(evCold.saves.Load()))
	r.set("snapshot.store_mb", "MiB", float64(store.SizeBytes())/(1<<20))
	r.set("snapshot.load_ns", "ns", float64(evWarm.loadNs.Load()))
	r.set("ir.verify_warm_ns", "ns", tr.selfNs("ir.verify_warm"))
	r.set("snapshot.fingerprint_ns", "ns", tr.selfNs("snapshot.fingerprint"))
	r.set("snapshot.open_ns", "ns", tr.selfNs("snapshot.open"))
	r.set("snapshot.restore_ns", "ns", tr.selfNs("snapshot.restore"))
	r.set("snapshot.hits", "count", float64(st.Hits))
	r.set("snapshot.section_scans", "count", float64(st.SectionScans))
	r.set("snapshot.section_skips", "count", float64(st.SectionSkips))
	r.set("snapshot.decoded_cache_hits", "count", float64(st.DecodedCacheHits))

	total := float64(evCold.buildNs.Load() + evWarm.buildNs.Load())
	var phases float64
	for _, name := range []string{"ir.verify", "snapshot.probe", "backend.prepare", "core.precompute",
		"snapshot.capture", "snapshot.save", "ir.verify_warm", "snapshot.fingerprint", "snapshot.open",
		"snapshot.restore"} {
		phases += tr.selfNs(name)
	}
	setReconcile(r, total, phases, restartReconcileBound, c.coldNs+c.warmNs+c.sweepNs, untraced)
	runtime.KeepAlive(warm)
	return writeTrace(opts, tr)
}

// replay runs one start's per-function work a layer call at a time, as
// the engine's Precompute does: functions claimed in order by GOMAXPROCS
// workers sharing one store handle on dir, so the replayed calls contend
// for the processors as the engine's builds did. Each worker records its
// own spans; tr absorbs them.
func replay(tr *tracer, funcs []*ir.Func, dir string, one func(*tracer, *snapshot.Store, *ir.Func) error) error {
	store, err := snapshot.Open(dir, 0)
	if err != nil {
		return err
	}
	runtime.GC()
	workers := runtime.GOMAXPROCS(0)
	trs := make([]*tracer, workers)
	errs := make([]error, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := range trs {
		trs[w] = newTracer(tr.epoch)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for errs[w] == nil {
				i := int(next.Add(1)) - 1
				if i >= len(funcs) {
					return
				}
				errs[w] = one(trs[w], store, funcs[i])
			}
		}()
	}
	wg.Wait()
	for w, t := range trs {
		if errs[w] != nil {
			return errs[w]
		}
		tr.absorb(t)
	}
	return nil
}

// replayCold is one function's cold start against an empty store:
// verify, the store probe that misses, the CFG preparation, the R/T
// precompute, and the write-back (capture, then Store.Save, which encodes
// and writes; Encode is also timed on its own, outside the phase sum).
func replayCold(tr *tracer, store *snapshot.Store, f *ir.Func) error {
	var err error
	var prep *backend.Prep
	var chk *core.Checker
	var snap *snapshot.Snapshot
	tr.call("ir.verify", -1, func() { err = ir.Verify(f) })
	if err != nil {
		return err
	}
	tr.call("snapshot.probe", -1, func() {
		fp, _ := snapshot.FingerprintFunc(f, snapshot.FlagsFor(core.Options{}))
		_, err = store.Load(fp)
	})
	if !errors.Is(err, snapshot.ErrNotFound) {
		return fmt.Errorf("restart: replayed cold probe of %s: %v", f.Name, err)
	}
	tr.call("backend.prepare", -1, func() { prep, err = backend.PrepareUnverified(f) })
	if err != nil {
		return err
	}
	tr.call("core.precompute", -1, func() { chk = core.NewFrom(prep.Graph, prep.DFS, prep.Tree, core.Options{}) })
	tr.call("snapshot.capture", -1, func() { snap, err = snapshot.Capture(prep, chk) })
	if err != nil {
		return err
	}
	tr.call("snapshot.encode", -1, func() { _, err = snap.Encode() })
	if err != nil {
		return err
	}
	tr.call("snapshot.save", -1, func() { err = store.Save(snap) })
	return err
}

// replayWarm is one function's warm start on a fresh handle over the
// populated store: verify, fingerprint, Store.Load (map and check the
// file) and RestoreFrom.
func replayWarm(tr *tracer, store *snapshot.Store, f *ir.Func) error {
	var err error
	var fp uint64
	var index []int
	var snap *snapshot.Snapshot
	tr.call("ir.verify_warm", -1, func() { err = ir.Verify(f) })
	if err != nil {
		return err
	}
	tr.call("snapshot.fingerprint", -1, func() { fp, index = snapshot.FingerprintFunc(f, snapshot.FlagsFor(core.Options{})) })
	tr.call("snapshot.open", -1, func() { snap, err = store.Load(fp) })
	if err != nil {
		return err
	}
	tr.call("snapshot.restore", -1, func() { _, err = snap.RestoreFrom(f, index, core.Options{}) })
	return err
}
