package fastliveness

// Chaos battery for the engine's failure model: deterministic fault
// injection (internal/faults) drives panicking analyses, failing snapshot
// I/O and slow disks through the real build paths, and every surviving
// answer is validated against a fresh recompute — the failure model may
// degrade performance, never correctness.

import (
	"errors"
	"sync"
	"testing"
	"time"

	"fastliveness/internal/backend"
	"fastliveness/internal/faults"
	"fastliveness/internal/ir"
	"fastliveness/internal/retry"
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

// setBreaker swaps ss's circuit breaker for a closed one that opens after
// failures consecutive errors and admits a probe after cooldown.
func setBreaker(ss *SnapshotStore, failures int, cooldown time.Duration) {
	ss.breaker = retry.NewBreaker(retry.BreakerConfig{
		Failures:     failures,
		Cooldown:     cooldown,
		OnTransition: ss.onBreakerTransition,
	})
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
// function keeps analyzing and answering correctly — and the quarantine
// must end at the function's next edit.
func TestEngineChaosPanicQuarantineIsolation(t *testing.T) {
	funcs := engineCorpus(t, 8, 201)
	victim := funcs[3]
	in := faults.New(1)
	in.Add(faults.Rule{Site: backend.FaultSiteAnalyze + ":" + victim.Name, Action: faults.ActionPanic})
	armFaulty(t, faulty, in)

	// No retries: the first panic quarantines for good (until an edit).
	e := NewEngine(EngineConfig{Config: Config{Backend: "faulty"}})
	e.buildRetries = 0
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
	// Repeated requests fail fast without re-running the analysis.
	fired := in.Fired(backend.FaultSiteAnalyze + ":" + victim.Name)
	for i := 0; i < 5; i++ {
		if _, err := e.Liveness(victim); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("call %d: %v, want ErrQuarantined", i, err)
		}
	}
	if got := in.Fired(backend.FaultSiteAnalyze + ":" + victim.Name); got != fired {
		t.Fatalf("fail-fast calls re-ran the analysis: %d fires, want %d", got, fired)
	}

	// An edit ends the quarantine: the panic described a program that no
	// longer exists. Disarm and verify the victim recovers.
	faulty.SetInjector(nil)
	addSomeUse(t, victim)
	assertMatchesFresh(t, e, victim)
}

// With a retry budget, a transiently panicking build recovers on its own:
// backoff-paced retries re-run the analysis until it succeeds.
func TestEngineChaosPanicRetryBackoffRecovers(t *testing.T) {
	funcs := engineCorpus(t, 1, 202)
	f := funcs[0]
	site := backend.FaultSiteAnalyze + ":" + f.Name
	in := faults.New(2)
	in.Add(faults.Rule{Site: site, Action: faults.ActionPanic, Times: 2})
	armFaulty(t, faulty, in)

	e := NewEngine(EngineConfig{Config: Config{Backend: "faulty"}})
	e.buildRetries = 3
	e.Add(f)
	if _, err := e.Liveness(f); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("first call: %v, want ErrQuarantined", err)
	}
	// Retries are paced by the backoff; poll until one lands and succeeds.
	waitFor(t, "quarantined function to recover via retries", func() bool {
		_, err := e.Liveness(f)
		return err == nil
	})
	if got := in.Fired(site); got != 2 {
		t.Fatalf("injector fired %d times, want exactly the 2 armed panics", got)
	}
	assertMatchesFresh(t, e, f)
}

// The default quarantine budget: an always-panicking build runs exactly
// 1 + defaultMaxBuildRetries times across backoff-paced requests, then
// fails fast without re-running the analysis, and an edit clears it.
func TestEngineChaosDefaultQuarantineBudget(t *testing.T) {
	f := engineCorpus(t, 1, 209)[0]
	site := backend.FaultSiteAnalyze + ":" + f.Name
	in := faults.New(9)
	in.Add(faults.Rule{Site: site, Action: faults.ActionPanic})
	armFaulty(t, faulty, in)

	e := NewEngine(EngineConfig{Config: Config{Backend: "faulty"}})
	defer e.Close()
	e.Add(f)
	budget := 1 + defaultMaxBuildRetries
	request := func() {
		t.Helper()
		if _, err := e.Liveness(f); !errors.Is(err, ErrQuarantined) {
			t.Fatalf("request on a panicking build: %v, want ErrQuarantined", err)
		}
	}
	// Requests inside a backoff fail fast; the others run a retry.
	waitFor(t, "the retry budget to be spent", func() bool {
		request()
		return in.Fired(site) >= budget
	})
	// Outlast the longest backoff: the spent budget still fails fast.
	time.Sleep(2 * quarantineBackoffCap)
	for i := 0; i < 5; i++ {
		request()
	}
	if got := in.Fired(site); got != budget {
		t.Fatalf("analysis ran %d times, want 1 + %d retries", got, defaultMaxBuildRetries)
	}
	if got := e.Metrics().Quarantined; got != 1 {
		t.Fatalf("Quarantined = %d, want 1", got)
	}

	// An edit clears the quarantine: the next request builds again.
	faulty.SetInjector(nil)
	addSomeUse(t, f)
	assertMatchesFresh(t, e, f)
	if got := e.Metrics().Quarantined; got != 0 {
		t.Fatalf("Quarantined = %d after the edit, want 0", got)
	}
}

// A dead disk opens the snapshot breaker, after which builds stop
// touching the store entirely — zero further disk I/O — and recompute
// from IR with correct answers.
func TestEngineChaosSnapshotBreakerOpensAndSkipsDisk(t *testing.T) {
	ss, err := OpenSnapshotStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	setBreaker(ss, 3, time.Hour) // no half-open probes during this test
	in := faults.New(4)
	in.Add(
		faults.Rule{Site: snapshot.FaultSiteLoad, Action: faults.ActionError},
		faults.Rule{Site: snapshot.FaultSiteSave, Action: faults.ActionError},
	)
	ss.store.SetFaultInjector(in)

	funcs := engineCorpus(t, 12, 204)
	// Parallelism 1 makes the admitted-I/O counts exact: build 1 pays one
	// failed load and the save retries until the breaker opens; every
	// later build skips the disk outright.
	e := NewEngine(EngineConfig{SnapshotStore: ss, Parallelism: 1})
	e.Add(funcs...)
	if err := e.Precompute(); err != nil {
		t.Fatalf("disk faults must degrade builds, not fail them: %v", err)
	}
	if got := ss.BreakerState(); got != "open" {
		t.Fatalf("breaker state %q, want open", got)
	}
	stats := e.SnapshotStats()
	if stats.Misses != 12 || stats.Hits != 0 || stats.Stores != 0 {
		t.Fatalf("stats %+v: want 12 misses, 0 hits, 0 stores", stats)
	}
	if stats.BreakerSkips != 11 {
		t.Fatalf("BreakerSkips = %d, want 11 (every build after the first)", stats.BreakerSkips)
	}
	if loads := in.Calls(snapshot.FaultSiteLoad); loads != 1 {
		t.Fatalf("store.Load ran %d times, want 1: an open breaker must mean zero disk reads", loads)
	}
	if saves := in.Calls(snapshot.FaultSiteSave); saves != 2 {
		t.Fatalf("store.Save ran %d times, want 2 (first attempt + one retry before the breaker opened)", saves)
	}
	if got := e.Metrics().SnapshotSaveNs.Count; got != 1 {
		t.Fatalf("%d save latency samples, want 1: an open breaker must skip the save before any work", got)
	}
	for _, f := range funcs {
		assertMatchesFresh(t, e, f)
	}
}

// After the cooldown an open breaker admits a single half-open probe
// load; a successful probe closes the breaker and the warm store serves
// hits again.
func TestEngineChaosSnapshotBreakerHalfOpenRestores(t *testing.T) {
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

	ss, err := OpenSnapshotStore(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	setBreaker(ss, 1, time.Millisecond)
	in := faults.New(5)
	in.Add(faults.Rule{Site: snapshot.FaultSiteLoad, Action: faults.ActionError, Times: 1})
	ss.store.SetFaultInjector(in)

	e2 := NewEngine(EngineConfig{SnapshotStore: ss})
	e2.Add(f)
	if _, err := e2.Liveness(f); err != nil {
		t.Fatal(err)
	}
	if got := ss.BreakerState(); got != "open" {
		t.Fatalf("breaker state %q after the injected load failure, want open", got)
	}

	// Cooldown elapses; the next load runs as the half-open probe, hits
	// the warm file, and closes the breaker.
	time.Sleep(10 * time.Millisecond)
	e2.Invalidate(f)
	if _, err := e2.Liveness(f); err != nil {
		t.Fatal(err)
	}
	if got := ss.BreakerState(); got != "closed" {
		t.Fatalf("breaker state %q after a successful probe, want closed", got)
	}
	stats := e2.SnapshotStats()
	if stats.Hits != 1 || stats.Computes != 1 {
		t.Fatalf("stats %+v: want the probe rebuild served from disk (1 hit, 1 compute)", stats)
	}
	assertMatchesFresh(t, e2, f)
}

// A transiently failing save is retried with backoff and lands on the
// second attempt, so one hiccup does not cost a future process its warm
// start.
func TestEngineChaosSnapshotSaveRetriesTransientError(t *testing.T) {
	ss, err := OpenSnapshotStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	in := faults.New(6)
	in.Add(faults.Rule{Site: snapshot.FaultSiteSave, Action: faults.ActionError, Times: 1})
	ss.store.SetFaultInjector(in)

	funcs := engineCorpus(t, 1, 206)
	e := NewEngine(EngineConfig{SnapshotStore: ss})
	e.Add(funcs...)
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	if got := in.Calls(snapshot.FaultSiteSave); got != 2 {
		t.Fatalf("store.Save ran %d times, want 2 (failure + successful retry)", got)
	}
	if stats := e.SnapshotStats(); stats.Stores != 1 {
		t.Fatalf("Stores = %d, want 1: the retry must have landed", stats.Stores)
	}
	if ss.Len() != 1 {
		t.Fatalf("store holds %d snapshots, want 1", ss.Len())
	}
	if got := ss.BreakerState(); got != "closed" {
		t.Fatalf("breaker state %q, want closed (one transient failure is below the threshold)", got)
	}
}

// Invalidate and edits racing query-path builds that panic at random —
// run under -race in CI. Each handle's state record is
// reset by Invalidate and by edits while builds (some of them quarantine
// retries) are in flight; the race detector holds the ownership rule (the
// in-flight builder alone touches the verified bit, resets run
// under the engine mutex), and once the faults are disarmed and every
// record is reset, the quarantine gauge must have balanced back to 0.
func TestEngineChaosStateResetRacesBuilds(t *testing.T) {
	funcs := engineCorpus(t, 6, 208)
	in := faults.New(8)
	in.Add(
		faults.Rule{Site: backend.FaultSiteAnalyze, Action: faults.ActionDelay, Delay: 100 * time.Microsecond, P: 0.5},
		faults.Rule{Site: backend.FaultSiteAnalyze, Action: faults.ActionPanic, P: 0.3},
	)
	armFaulty(t, faulty, in)
	e := NewEngine(EngineConfig{Config: Config{Backend: "faulty"}})
	e.buildRetries = 1
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
	setBreaker(ss, 4, time.Millisecond)
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
