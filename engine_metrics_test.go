package fastliveness

// Tests for the consolidated observability surface: Metrics() agreeing
// with the legacy accessors it superseded, the quarantine gauge, the
// Tracer event stream, and /metrics scrapes racing live queriers and
// editors.

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
	"testing"
	"time"
	"weak"

	"fastliveness/internal/backend"
	"fastliveness/internal/faults"
	"fastliveness/internal/telemetry"
)

// recordingTracer captures every callback under a mutex: per-event counts
// plus the function names seen, for order-insensitive assertions.
type recordingTracer struct {
	mu     sync.Mutex
	counts map[string]int
	names  map[string][]string
}

func newRecordingTracer() *recordingTracer {
	return &recordingTracer{counts: make(map[string]int), names: make(map[string][]string)}
}

func (r *recordingTracer) hit(event, fn string) {
	r.mu.Lock()
	r.counts[event]++
	if fn != "" {
		r.names[event] = append(r.names[event], fn)
	}
	r.mu.Unlock()
}

func (r *recordingTracer) count(event string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counts[event]
}

func (r *recordingTracer) saw(event, fn string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.names[event] {
		if n == fn {
			return true
		}
	}
	return false
}

func (r *recordingTracer) BuildStart(fn string)                         { r.hit("BuildStart", fn) }
func (r *recordingTracer) BuildEnd(fn string, d time.Duration, e error) { r.hit("BuildEnd", fn) }
func (r *recordingTracer) QueryBatch(fn string, n int, d time.Duration) { r.hit("QueryBatch", fn) }
func (r *recordingTracer) SnapshotLoad(fn string, hit bool, d time.Duration) {
	if hit {
		r.hit("SnapshotLoadHit", fn)
	} else {
		r.hit("SnapshotLoadMiss", fn)
	}
}
func (r *recordingTracer) SnapshotSave(ok bool, d time.Duration) { r.hit("SnapshotSave", "") }
func (r *recordingTracer) QuarantineEnter(fn string)             { r.hit("QuarantineEnter", fn) }
func (r *recordingTracer) QuarantineClear(fn string)             { r.hit("QuarantineClear", fn) }

// TestEngineMetricsConsolidation: Metrics() must agree with every legacy
// accessor it consolidates, and the instruments this layer added must
// account exactly for the work driven through the engine.
func TestEngineMetricsConsolidation(t *testing.T) {
	ss, err := OpenSnapshotStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := engineCorpus(t, 6, 310)
	e, err := AnalyzeProgram(funcs, EngineConfig{SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Traffic: one small batch per function plus two oracle queries each.
	for _, f := range funcs {
		qs := allQueries(f)[:8]
		if _, err := e.BatchIsLiveIn(f, qs); err != nil {
			t.Fatal(err)
		}
		o, err := e.Oracle(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range qs[:2] {
			o.IsLiveIn(q.V, q.B)
		}
	}
	// Two query-path rebuilds (a CFG edit, then a request).
	for _, f := range funcs[:2] {
		splitSomeEdge(t, f)
		if _, err := e.Liveness(f); err != nil {
			t.Fatal(err)
		}
	}

	m := e.Metrics()
	if m.Funcs != len(funcs) || m.Resident != e.Resident() {
		t.Fatalf("Funcs/Resident = %d/%d, want %d/%d",
			m.Funcs, m.Resident, len(funcs), e.Resident())
	}
	if m.Rebuilds != e.Rebuilds() || m.Rebuilds != 2 {
		t.Fatalf("Rebuilds = %d (accessor %d), want 2", m.Rebuilds, e.Rebuilds())
	}
	if m.Snapshot != e.SnapshotStats() {
		t.Fatalf("Snapshot %+v != SnapshotStats() %+v", m.Snapshot, e.SnapshotStats())
	}
	if m.Quarantined != 0 {
		t.Fatalf("Quarantined = %d, want 0", m.Quarantined)
	}
	// 6 first builds + 2 query-path rebuilds.
	if m.Builds != 8 {
		t.Fatalf("Builds = %d, want 8", m.Builds)
	}
	if m.BuildNs.Count != uint64(m.Builds) {
		t.Fatalf("BuildNs.Count = %d, want Builds = %d", m.BuildNs.Count, m.Builds)
	}
	if m.Batches != 6 || m.BatchNs.Count != 6 {
		t.Fatalf("Batches/BatchNs.Count = %d/%d, want 6/6", m.Batches, m.BatchNs.Count)
	}
	// 6×8 batch entries + 6×2 oracle queries.
	if m.Queries != 60 {
		t.Fatalf("Queries = %d, want 60", m.Queries)
	}
	// Every build consulted the (checker-backed) snapshot tier, so each
	// observed a load latency.
	if m.SnapshotLoadNs.Count != uint64(m.Builds) {
		t.Fatalf("SnapshotLoadNs.Count = %d, want Builds = %d", m.SnapshotLoadNs.Count, m.Builds)
	}
	if m.Snapshot.Hits+m.Snapshot.Misses != int64(m.Builds) {
		t.Fatalf("Hits+Misses = %d, want Builds = %d", m.Snapshot.Hits+m.Snapshot.Misses, m.Builds)
	}
}

// TestEngineMetricsQuarantineGauge: a panicking build raises the gauge
// (and fires QuarantineEnter); recovery via an edit plus a clean rebuild
// lowers it (and fires QuarantineClear).
func TestEngineMetricsQuarantineGauge(t *testing.T) {
	funcs := engineCorpus(t, 2, 311)
	victim := funcs[1]
	in := faults.New(31)
	in.Add(faults.Rule{Site: backend.FaultSiteAnalyze + ":" + victim.Name, Action: faults.ActionPanic})
	armFaulty(t, faulty, in)

	tr := newRecordingTracer()
	e := NewEngine(EngineConfig{Config: Config{Backend: "faulty"}, Tracer: tr})
	e.Add(funcs...)
	if err := e.Precompute(); err == nil {
		t.Fatal("Precompute succeeded despite the injected panic")
	}
	if got := e.Metrics().Quarantined; got != 1 {
		t.Fatalf("Quarantined = %d after panic, want 1", got)
	}
	if tr.count("QuarantineEnter") != 1 || !tr.saw("QuarantineEnter", victim.Name) {
		t.Fatalf("QuarantineEnter events = %d (victim seen: %v), want exactly 1 for the victim",
			tr.count("QuarantineEnter"), tr.saw("QuarantineEnter", victim.Name))
	}

	faulty.SetInjector(nil)
	addSomeUse(t, victim) // the edit invalidates the recorded failure
	if _, err := e.Liveness(victim); err != nil {
		t.Fatalf("post-edit rebuild: %v", err)
	}
	if got := e.Metrics().Quarantined; got != 0 {
		t.Fatalf("Quarantined = %d after recovery, want 0", got)
	}
	if tr.count("QuarantineClear") != 1 {
		t.Fatalf("QuarantineClear events = %d, want 1", tr.count("QuarantineClear"))
	}

	// Invalidate resets the whole state record, as an edit does: after a
	// fresh panic, Invalidate alone (no edit) lowers the gauge, fires
	// QuarantineClear and drops the recorded failure — so the next request
	// builds (and, still faulty, enters quarantine anew) instead of
	// failing fast.
	faulty.SetInjector(in)
	splitSomeEdge(t, victim) // stales the resident analysis: rebuild
	if _, err := e.Liveness(victim); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("re-armed build: err = %v, want ErrQuarantined", err)
	}
	if got := e.Metrics().Quarantined; got != 1 {
		t.Fatalf("Quarantined = %d after the second panic, want 1", got)
	}
	e.Invalidate(victim)
	if got := e.Metrics().Quarantined; got != 0 {
		t.Fatalf("Quarantined = %d after Invalidate dropped the recorded error, want 0", got)
	}
	if tr.count("QuarantineClear") != 2 {
		t.Fatalf("QuarantineClear events = %d after Invalidate, want 2", tr.count("QuarantineClear"))
	}
	fired := in.Fired(backend.FaultSiteAnalyze + ":" + victim.Name)
	if _, err := e.Liveness(victim); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("build after Invalidate: err = %v, want ErrQuarantined", err)
	}
	if got := in.Fired(backend.FaultSiteAnalyze + ":" + victim.Name); got != fired+1 {
		t.Fatalf("injected panics = %d after Invalidate, want %d (a build, not a fail-fast)", got, fired+1)
	}
	if tr.count("QuarantineEnter") != 3 {
		t.Fatalf("QuarantineEnter events = %d, want 3 (one per recorded panic)", tr.count("QuarantineEnter"))
	}
	faulty.SetInjector(nil)
	e.Invalidate(victim)
	if _, err := e.Liveness(victim); err != nil {
		t.Fatalf("clean build after Invalidate: %v", err)
	}
	if got := e.Metrics().Quarantined; got != 0 {
		t.Fatalf("Quarantined = %d after the clean build, want 0", got)
	}
}

// TestEngineMetricsTracerEvents drives the build and batch tracer
// callbacks through real engine paths: first builds, a batch, and a
// staleness rebuild.
func TestEngineMetricsTracerEvents(t *testing.T) {
	tr := newRecordingTracer()
	funcs := engineCorpus(t, 2, 312)
	f1, f2 := funcs[0], funcs[1]
	e := NewEngine(EngineConfig{Config: Config{Backend: "gate"}, Tracer: tr})
	defer e.Close()
	e.Add(funcs...)
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	if tr.count("BuildStart") != 2 || tr.count("BuildEnd") != 2 {
		t.Fatalf("BuildStart/End = %d/%d after 2 builds", tr.count("BuildStart"), tr.count("BuildEnd"))
	}
	qs := allQueries(f1)[:4]
	if _, err := e.BatchIsLiveIn(f1, qs); err != nil {
		t.Fatal(err)
	}
	if tr.count("QueryBatch") != 1 || !tr.saw("QueryBatch", f1.Name) {
		t.Fatalf("QueryBatch events = %d, want 1 for %s", tr.count("QueryBatch"), f1.Name)
	}

	// The gate backend is set-producing, so an instruction edit stales
	// it: the next request rebuilds f2, and only f2.
	addSomeUse(t, f2)
	if _, err := e.Liveness(f2); err != nil {
		t.Fatal(err)
	}
	if tr.count("BuildStart") != 3 || tr.count("BuildEnd") != 3 {
		t.Fatalf("BuildStart/End = %d/%d after the rebuild, want 3/3", tr.count("BuildStart"), tr.count("BuildEnd"))
	}
	tr.mu.Lock()
	last := tr.names["BuildStart"][2]
	tr.mu.Unlock()
	if last != f2.Name {
		t.Fatalf("the rebuild traced BuildStart for %s, want %s", last, f2.Name)
	}
}

// TestEngineMetricsTracerSnapshotEvents: with a checker engine over a
// snapshot store, a cold build traces a load miss and a save, and a
// second engine over the same store traces a load hit.
func TestEngineMetricsTracerSnapshotEvents(t *testing.T) {
	dir := t.TempDir()
	funcs := engineCorpus(t, 1, 316)
	run := func() *recordingTracer {
		ss, err := OpenSnapshotStore(dir, 0)
		if err != nil {
			t.Fatal(err)
		}
		tr := newRecordingTracer()
		e := NewEngine(EngineConfig{SnapshotStore: ss, Tracer: tr})
		e.Add(funcs...)
		if err := e.Precompute(); err != nil {
			t.Fatal(err)
		}
		e.Close()
		return tr
	}
	tr := run()
	if tr.count("SnapshotLoadMiss") != 1 || tr.count("SnapshotSave") != 1 {
		t.Fatalf("cold engine: %d misses / %d saves, want 1/1",
			tr.count("SnapshotLoadMiss"), tr.count("SnapshotSave"))
	}
	tr = run() // same store, same corpus: warm start
	if tr.count("SnapshotLoadHit") != 1 || tr.count("SnapshotSave") != 0 {
		t.Fatalf("warm engine: %d hits / %d saves, want 1/0",
			tr.count("SnapshotLoadHit"), tr.count("SnapshotSave"))
	}
}

// TestEngineClosedEngineNotPinnedByStore: a shared SnapshotStore must not
// keep Closed engines — and every analysis they hold — reachable, traced
// or not.
func TestEngineClosedEngineNotPinnedByStore(t *testing.T) {
	ss, err := OpenSnapshotStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := engineCorpus(t, 1, 317)
	const engines = 5
	refs := make([]weak.Pointer[Engine], 0, engines)
	for i := 0; i < engines; i++ {
		config := EngineConfig{SnapshotStore: ss}
		if i == 0 {
			config.Tracer = newRecordingTracer()
		}
		e := NewEngine(config)
		e.Add(funcs...)
		if err := e.Precompute(); err != nil {
			t.Fatal(err)
		}
		e.Close()
		refs = append(refs, weak.Make(e))
	}
	runtime.GC()
	runtime.GC()
	reachable := 0
	for _, r := range refs {
		if r.Value() != nil {
			reachable++
		}
	}
	if reachable != 0 {
		t.Errorf("%d of %d Closed engines still reachable from the shared store", reachable, engines)
	}
}

// TestEngineMetricsScrapeRace scrapes WriteMetrics and Metrics()
// concurrently with queriers and editors under the race detector, and
// lints every scrape's exposition output. Named TestEngine* so the CI
// race-stress step picks it up.
func TestEngineMetricsScrapeRace(t *testing.T) {
	ss, err := OpenSnapshotStore(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	funcs := engineCorpus(t, 8, 314)
	e, err := AnalyzeProgram(funcs, EngineConfig{SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const iters = 60
	// Take the query sets before the editors start: walking the IR outside
	// Edit's lock would race the edits.
	qss := make([][]Query, len(funcs))
	for i, f := range funcs {
		qss[i] = allQueries(f)[:16]
	}
	var wg sync.WaitGroup
	// Batch traffic on every function.
	for i := range funcs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f, qs := funcs[i], qss[i]
			for n := 0; n < iters; n++ {
				if _, err := e.BatchIsLiveIn(f, qs); err != nil {
					t.Errorf("%s: %v", f.Name, err)
					return
				}
			}
		}(i)
	}
	// Editors: sanctioned concurrent mutation through Edit.
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			f := funcs[i]
			for n := 0; n < iters; n++ {
				e.Edit(f, func() { addSomeUse(t, f) })
			}
		}(i)
	}
	// Scrapers: the /metrics payload must lint on every concurrent scrape,
	// and the struct snapshot must stay readable mid-traffic.
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < iters; n++ {
				var buf bytes.Buffer
				e.WriteMetrics(&buf)
				if err := telemetry.CheckExposition(buf.String()); err != nil {
					t.Errorf("scrape %d: %v", n, err)
					return
				}
				_ = e.Metrics()
			}
		}()
	}
	wg.Wait()
	// Hold the settled exposition to the lint and the cross-field
	// invariants a racing scrape cannot assert.

	m := e.Metrics()
	if m.Queries == 0 || m.Batches == 0 || m.Builds == 0 {
		t.Fatalf("no traffic recorded: %+v", m)
	}
	if m.BuildNs.Count != uint64(m.Builds) {
		t.Fatalf("BuildNs.Count = %d, want Builds = %d", m.BuildNs.Count, m.Builds)
	}
	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	if err := telemetry.CheckExposition(buf.String()); err != nil {
		t.Fatalf("final scrape: %v", err)
	}
}

// TestEngineMetricsCloseSafe: Metrics and WriteMetrics still answer on a
// Closed engine — monitoring outlives serving.
func TestEngineMetricsCloseSafe(t *testing.T) {
	funcs := engineCorpus(t, 2, 315)
	e, err := AnalyzeProgram(funcs, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	e.Close()
	m := e.Metrics()
	if m.Funcs != 2 || m.Builds != 2 {
		t.Fatalf("post-Close Metrics: Funcs/Builds = %d/%d, want 2/2", m.Funcs, m.Builds)
	}
	var buf bytes.Buffer
	e.WriteMetrics(&buf)
	if err := telemetry.CheckExposition(buf.String()); err != nil {
		t.Fatal(err)
	}
}
