package fastliveness

// Chaos battery for the engine's failure model: deterministic fault
// injection (internal/faults) drives panicking analyses, failing snapshot
// I/O and slow disks through the real build paths, and every surviving
// answer is validated against a fresh recompute — the failure model may
// degrade performance, never correctness. The model has one rule: a
// failed build stays failed until the function's next edit or Invalidate,
// and a snapshot I/O error is a miss (a failed save is dropped). Nothing
// in it reads a clock, so no test here sleeps or polls.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"fastliveness/internal/backend"
	"fastliveness/internal/faults"
	"fastliveness/internal/ir"
	"fastliveness/internal/snapshot"
)

// faulty and faultyDF are fault-injectable wrappers around the checker and
// dataflow backends. Registration is global and permanent, so tests re-arm
// them with SetInjector (and disarm in cleanup) instead of re-registering.
var faulty = func() *backend.Faulty {
	inner, err := backend.Get("checker")
	if err != nil {
		panic(err)
	}
	return backend.NewFaulty("faulty", inner)
}()

var faultyDF = func() *backend.Faulty {
	inner, err := backend.Get("dataflow")
	if err != nil {
		panic(err)
	}
	return backend.NewFaulty("faultydf", inner)
}()

// armFaulty arms b with in for the duration of the test.
func armFaulty(t *testing.T, b *backend.Faulty, in *faults.Injector) {
	t.Helper()
	b.SetInjector(in)
	t.Cleanup(func() { b.SetInjector(nil) })
}

// assertMatchesFresh validates every engine answer for f against a fresh
// dataflow recompute — the ground truth the chaos tests hold every
// surviving answer to.
func assertMatchesFresh(t *testing.T, e *Engine, f *ir.Func) {
	t.Helper()
	live, err := e.Liveness(f)
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	truth, err := Analyze(f, Config{Backend: "dataflow"})
	if err != nil {
		t.Fatalf("fresh dataflow recompute of %s: %v", f.Name, err)
	}
	for _, q := range allQueries(f) {
		if got, want := live.IsLiveIn(q.V, q.B), truth.IsLiveIn(q.V, q.B); got != want {
			t.Fatalf("%s: IsLiveIn(%s, %s) = %v, want %v", f.Name, q.V, q.B, got, want)
		}
		if got, want := live.IsLiveOut(q.V, q.B), truth.IsLiveOut(q.V, q.B); got != want {
			t.Fatalf("%s: IsLiveOut(%s, %s) = %v, want %v", f.Name, q.V, q.B, got, want)
		}
	}
}

// A panicking build must quarantine exactly its own function — every other
// function keeps analyzing and answering correctly — and the build runs
// once per edit epoch: repeated requests fail fast without re-running it,
// and only an edit or Invalidate lets the next request run it again.
func TestEngineChaosPanicQuarantineIsolation(t *testing.T) {
	funcs := engineCorpus(t, 8, 201)
	victim := funcs[3]
	site := backend.FaultSiteAnalyze + ":" + victim.Name
	in := faults.New(1)
	in.Add(faults.Rule{Site: site, Action: faults.ActionPanic})
	armFaulty(t, faulty, in)

	e := NewEngine(EngineConfig{Config: Config{Backend: "faulty"}})
	defer e.Close()
	e.Add(funcs...)
	err := e.Precompute()
	if err == nil {
		t.Fatal("Precompute succeeded despite a panicking build")
	}
	if !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Precompute error %v does not wrap ErrQuarantined", err)
	}
	var bp *BuildPanicError
	if !errors.As(err, &bp) {
		t.Fatalf("Precompute error %v carries no *BuildPanicError", err)
	}
	if bp.Func != victim.Name || len(bp.Stack) == 0 {
		t.Fatalf("BuildPanicError{Func: %q, %d stack bytes}, want func %q with a stack", bp.Func, len(bp.Stack), victim.Name)
	}
	if _, ok := bp.Value.(*faults.InjectedPanic); !ok {
		t.Fatalf("panic value %T, want the injected panic", bp.Value)
	}

	// Only the victim is quarantined; everyone else answers correctly.
	for i, f := range funcs {
		if i == 3 {
			continue
		}
		assertMatchesFresh(t, e, f)
	}
	// failFast asserts that 5 requests fail with the quarantine error and
	// the panic's stack without running the build.
	failFast := func(when string) {
		t.Helper()
		fired := in.Fired(site)
		for i := 0; i < 5; i++ {
			_, err := e.Liveness(victim)
			if !errors.Is(err, ErrQuarantined) || !errors.As(err, &bp) {
				t.Fatalf("%s, request %d: %v, want ErrQuarantined with a *BuildPanicError", when, i, err)
			}
		}
		if got := in.Fired(site); got != fired {
			t.Fatalf("%s: fail-fast requests ran the build %d more times, want 0", when, got-fired)
		}
	}
	// buildsOnce asserts that the next request runs the build exactly once.
	buildsOnce := func(when string) {
		t.Helper()
		fired := in.Fired(site)
		if _, err := e.Liveness(victim); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("%s: %v, want ErrQuarantined", when, err)
		}
		if got := in.Fired(site); got != fired+1 {
			t.Fatalf("%s: the build ran %d times, want 1", when, got-fired)
		}
	}
	if got := in.Fired(site); got != 1 {
		t.Fatalf("Precompute ran the panicking build %d times, want 1", got)
	}
	failFast("after Precompute")
	addSomeUse(t, victim)
	buildsOnce("after an edit")
	failFast("after the edit's build")
	e.Invalidate(victim)
	buildsOnce("after Invalidate")
	failFast("after Invalidate's build")

	// Disarmed, an edit ends the quarantine: the victim recovers.
	faulty.SetInjector(nil)
	addSomeUse(t, victim)
	assertMatchesFresh(t, e, victim)
}

// A dead disk costs exactly one load attempt and one save attempt per
// build, never an error or a wrong answer: every failure is a miss, and
// every failed save is dropped.
func TestEngineChaosSnapshotDeadDisk(t *testing.T) {
	ss, err := OpenSnapshotStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(4)
	in.Add(
		faults.Rule{Site: snapshot.FaultSiteLoad, Action: faults.ActionError},
		faults.Rule{Site: snapshot.FaultSiteSave, Action: faults.ActionError},
	)
	ss.store.SetFaultInjector(in)

	const n = 12
	funcs := engineCorpus(t, n, 204)
	e := NewEngine(EngineConfig{SnapshotStore: ss, Parallelism: 1})
	defer e.Close()
	e.Add(funcs...)
	if err := e.Precompute(); err != nil {
		t.Fatalf("disk faults must degrade builds, not fail them: %v", err)
	}
	stats := e.SnapshotStats()
	if stats.Misses != n || stats.Hits != 0 || stats.Stores != 0 || stats.Computes != n {
		t.Fatalf("stats %+v: want %d misses, 0 hits, 0 stores, %d computes", stats, n, n)
	}
	if loads := in.Calls(snapshot.FaultSiteLoad); loads != n {
		t.Fatalf("store.Load ran %d times, want %d (one per build)", loads, n)
	}
	if saves := in.Calls(snapshot.FaultSiteSave); saves != n {
		t.Fatalf("store.Save ran %d times, want %d (one per build, no retries)", saves, n)
	}
	if ss.Len() != 0 {
		t.Fatalf("store holds %d snapshots, want 0", ss.Len())
	}
	for _, f := range funcs {
		assertMatchesFresh(t, e, f)
	}
}

// One transient load error costs exactly one miss: the build recomputes,
// and the next build after Invalidate loads the warm file.
func TestEngineChaosSnapshotTransientLoadError(t *testing.T) {
	dir := t.TempDir()
	funcs := engineCorpus(t, 1, 205)
	f := funcs[0]

	// Warm the store with a healthy engine.
	warm, err := OpenSnapshotStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	e1 := NewEngine(EngineConfig{SnapshotStore: warm})
	e1.Add(f)
	if err := e1.Precompute(); err != nil {
		t.Fatal(err)
	}
	e1.Close()
	if e1.SnapshotStats().Stores != 1 {
		t.Fatalf("warm-up stored %d snapshots, want 1", e1.SnapshotStats().Stores)
	}

	// A fresh store on the same directory, so its decoded cache is empty
	// and every load reaches the fault site.
	ss, err := OpenSnapshotStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(5)
	in.Add(faults.Rule{Site: snapshot.FaultSiteLoad, Action: faults.ActionError, Times: 1})
	ss.store.SetFaultInjector(in)

	e2 := NewEngine(EngineConfig{SnapshotStore: ss})
	defer e2.Close()
	e2.Add(f)
	if _, err := e2.Liveness(f); err != nil {
		t.Fatal(err)
	}
	if stats := e2.SnapshotStats(); stats.Misses != 1 || stats.Hits != 0 || stats.Computes != 1 {
		t.Fatalf("stats %+v after the injected load error: want 1 miss, 0 hits, 1 compute", stats)
	}
	e2.Invalidate(f)
	if _, err := e2.Liveness(f); err != nil {
		t.Fatal(err)
	}
	stats := e2.SnapshotStats()
	if stats.Misses != 1 || stats.Hits != 1 || stats.Computes != 1 {
		t.Fatalf("stats %+v: want the rebuild served from disk (1 miss, 1 hit, 1 compute)", stats)
	}
	if loads := in.Calls(snapshot.FaultSiteLoad); loads != 2 {
		t.Fatalf("store.Load ran %d times, want 2", loads)
	}
	assertMatchesFresh(t, e2, f)
}

// A failed save is dropped and counted — timed and traced, but not a
// store — and the next cold build of that fingerprint writes it.
func TestEngineChaosSnapshotFailedSaveDropped(t *testing.T) {
	ss, err := OpenSnapshotStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(6)
	in.Add(faults.Rule{Site: snapshot.FaultSiteSave, Action: faults.ActionError, Times: 1})
	ss.store.SetFaultInjector(in)

	f := engineCorpus(t, 1, 206)[0]
	tr := newRecordingTracer()
	e := NewEngine(EngineConfig{SnapshotStore: ss, Tracer: tr})
	defer e.Close()
	e.Add(f)
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	if got := in.Calls(snapshot.FaultSiteSave); got != 1 {
		t.Fatalf("store.Save ran %d times, want 1 (a failed save is not retried)", got)
	}
	m := e.Metrics()
	if m.Snapshot.Stores != 0 || ss.Len() != 0 {
		t.Fatalf("Stores = %d, store holds %d: want the failed save dropped", m.Snapshot.Stores, ss.Len())
	}
	if m.SnapshotSaveNs.Count != 1 || tr.count("SnapshotSave") != 1 {
		t.Fatalf("%d save latency samples, %d SnapshotSave events: want the failed save counted once",
			m.SnapshotSaveNs.Count, tr.count("SnapshotSave"))
	}

	// The next cold build of the same fingerprint writes it.
	e.Invalidate(f)
	if _, err := e.Liveness(f); err != nil {
		t.Fatal(err)
	}
	if got := in.Calls(snapshot.FaultSiteSave); got != 2 {
		t.Fatalf("store.Save ran %d times, want 2", got)
	}
	if stats := e.SnapshotStats(); stats.Stores != 1 || stats.Misses != 2 || stats.Computes != 2 {
		t.Fatalf("stats %+v: want 1 store after 2 misses and 2 computes", stats)
	}
	if ss.Len() != 1 {
		t.Fatalf("store holds %d snapshots, want 1", ss.Len())
	}
}

// Invalidate and edits racing query-path builds that panic at random —
// run under -race in CI. Each handle's state record is reset by
// Invalidate and by edits while builds are in flight; the race detector
// holds the ownership rule (the in-flight builder alone touches the
// verified bit, resets run under the engine mutex), and once the faults
// are disarmed and every record is reset, the quarantine gauge must have
// balanced back to 0.
func TestEngineChaosStateResetRacesBuilds(t *testing.T) {
	funcs := engineCorpus(t, 6, 208)
	in := faults.New(8)
	in.Add(
		faults.Rule{Site: backend.FaultSiteAnalyze, Action: faults.ActionDelay, Delay: 100 * time.Microsecond, P: 0.5},
		faults.Rule{Site: backend.FaultSiteAnalyze, Action: faults.ActionPanic, P: 0.3},
	)
	armFaulty(t, faulty, in)
	e := NewEngine(EngineConfig{Config: Config{Backend: "faulty"}})
	defer e.Close()
	e.Add(funcs...)

	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 60; i++ {
				// Quarantine errors are expected while the faults fire.
				_, _ = e.Liveness(funcs[(g+i)%len(funcs)])
			}
		}(g)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 60; i++ {
			e.Invalidate(funcs[i%len(funcs)])
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 12; i++ {
			f := funcs[i%len(funcs)]
			e.Edit(f, func() { splitSomeEdge(t, f) })
		}
	}()
	wg.Wait()

	faulty.SetInjector(nil)
	for _, f := range funcs {
		e.Invalidate(f)
		assertMatchesFresh(t, e, f)
	}
	if got := e.Metrics().Quarantined; got != 0 {
		t.Fatalf("Quarantined = %d after every record was reset and rebuilt cleanly, want 0", got)
	}
	if in.Fired(backend.FaultSiteAnalyze) == 0 {
		t.Fatal("no injected fault fired; the race exercised nothing")
	}
}

// Randomized fault stress: probabilistic load/save failures and delays
// across a corpus with concurrent queries must never change an answer —
// sharded comparison against fresh dataflow recomputes.
func TestEngineChaosSnapshotFaultStress(t *testing.T) {
	ss, err := OpenSnapshotStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(7)
	in.Add(
		faults.Rule{Site: snapshot.FaultSiteLoad, Action: faults.ActionDelay, Delay: 100 * time.Microsecond, P: 0.3},
		faults.Rule{Site: snapshot.FaultSiteLoad, Action: faults.ActionError, P: 0.4},
		faults.Rule{Site: snapshot.FaultSiteSave, Action: faults.ActionError, P: 0.4},
	)
	ss.store.SetFaultInjector(in)

	funcs := engineCorpus(t, 16, 207)
	e := NewEngine(EngineConfig{SnapshotStore: ss, Parallelism: 4})
	defer e.Close()
	e.Add(funcs...)
	if err := e.Precompute(); err != nil {
		t.Fatalf("injected snapshot faults must never fail a build: %v", err)
	}
	// Edit half the corpus (CFG edits, so the checker tier reloads) and
	// re-query everything; every answer must match a fresh recompute.
	for i, f := range funcs {
		if i%2 == 0 {
			e.Edit(f, func() { splitSomeEdge(t, f) })
		}
	}
	for _, f := range funcs {
		assertMatchesFresh(t, e, f)
	}
	stats := e.SnapshotStats()
	if stats.Hits+stats.Misses == 0 {
		t.Fatal("stress run never consulted the snapshot tier")
	}
}
