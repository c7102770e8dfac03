package fastliveness

// Rebuild-pool lifecycle tests. Deterministic interleavings are forced
// with a registered "gate" test backend: it answers exactly like dataflow
// (so it is set-producing — any edit stales it) but can be armed to block
// the next Analyze until the test releases it, letting the tests park a
// worker mid-build and race evictions/invalidations against it.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"fastliveness/internal/backend"
	"fastliveness/internal/ir"
)

// gateBackend wraps the dataflow backend; Arm makes the next Analyze
// block until the returned release func is called, signalling entry on
// the started channel.
type gateBackend struct {
	inner backend.Backend

	mu      sync.Mutex
	started chan struct{}
	release chan struct{}
}

var gate = func() *gateBackend {
	inner, err := backend.Get("dataflow")
	if err != nil {
		panic(err)
	}
	g := &gateBackend{inner: inner}
	backend.Register(g)
	return g
}()

func (g *gateBackend) Name() string { return "gate" }

func (g *gateBackend) Analyze(f *ir.Func) (backend.Result, error) {
	g.mu.Lock()
	started, release := g.started, g.release
	g.started, g.release = nil, nil
	g.mu.Unlock()
	if started != nil {
		close(started)
		<-release
	}
	return g.inner.Analyze(f)
}

// Arm makes the next Analyze call block. It returns a channel that closes
// when that Analyze has started and a func that releases it.
func (g *gateBackend) Arm() (started <-chan struct{}, release func()) {
	g.mu.Lock()
	defer g.mu.Unlock()
	s, r := make(chan struct{}), make(chan struct{})
	g.started, g.release = s, r
	return s, func() { close(r) }
}

// waitFor polls cond for up to 5s — the standard shape for asserting that
// an asynchronous effect (worker drain, goroutine exit) has landed.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// Close must stop every worker goroutine (no leaks, measured via
// runtime.NumGoroutine), discard pending queue entries, stay idempotent,
// and leave the engine fully usable in on-demand mode.
func TestEngineCloseDrainsWorkers(t *testing.T) {
	funcs := engineCorpus(t, 8, 55)
	before := runtime.NumGoroutine()
	e := NewEngine(EngineConfig{RebuildWorkers: 4})
	e.Add(funcs...)
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	// Dirty everything so the queue is busy when Close lands.
	for _, f := range funcs {
		splitSomeEdge(t, f)
		e.MarkDirty(f)
	}
	e.Close()
	e.Close() // idempotent
	waitFor(t, "worker goroutines to exit", func() bool {
		return runtime.NumGoroutine() <= before
	})
	if got := e.Metrics().QueuedRebuilds; got != 0 {
		t.Fatalf("QueuedRebuilds = %d after Close, want 0", got)
	}
	// Still usable: queries rebuild on demand after Close.
	for _, f := range funcs {
		live, err := e.Liveness(f)
		if err != nil {
			t.Fatal(err)
		}
		if live.Stale() {
			t.Fatalf("%s: stale analysis served after Close", f.Name)
		}
	}
	// MarkDirty after Close is a safe no-op.
	splitSomeEdge(t, funcs[0])
	e.MarkDirty(funcs[0])
	if got := e.Metrics().QueuedRebuilds; got != 0 {
		t.Fatalf("QueuedRebuilds = %d after post-Close MarkDirty, want 0", got)
	}
}

// MarkDirty must move re-analysis off the query path: after the pool
// processes a dirty function, the next query is a pure cache hit —
// query-path Rebuilds stays 0 while BackgroundRebuilds counts the work.
func TestEngineMarkDirtyRebuildsAhead(t *testing.T) {
	funcs := engineCorpus(t, 2, 91)
	e, err := AnalyzeProgram(funcs, EngineConfig{RebuildWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	f := funcs[0]
	splitSomeEdge(t, f) // CFG edit: stales the checker
	e.MarkDirty(f)
	waitFor(t, "background rebuild", func() bool { return e.Metrics().BackgroundRebuilds == 1 })
	live, err := e.Liveness(f)
	if err != nil {
		t.Fatal(err)
	}
	if live.Stale() {
		t.Fatal("analysis served after background rebuild is stale")
	}
	if got := e.Rebuilds(); got != 0 {
		t.Fatalf("query-path Rebuilds = %d, want 0 (the pool absorbed it)", got)
	}
	// An unregistered function is a safe no-op.
	e.MarkDirty(ir.NewFunc("stranger"))
	// A fresh function is a safe no-op (nothing stale to do).
	e.MarkDirty(funcs[1])
	if got := e.Metrics().QueuedRebuilds; got != 0 {
		t.Fatalf("QueuedRebuilds = %d after no-op MarkDirtys, want 0", got)
	}
}

// A build superseded mid-flight (Invalidate bumps the generation while
// the worker is inside Analyze) must be discarded, not cached: queries
// that raced it build on demand and never see the dead result.
func TestEngineSupersededBackgroundBuildDiscarded(t *testing.T) {
	funcs := engineCorpus(t, 1, 77)
	f := funcs[0]
	e := NewEngine(EngineConfig{Config: Config{Backend: "gate"}, RebuildWorkers: 1})
	defer e.Close()
	e.Add(f)
	if _, err := e.Liveness(f); err != nil {
		t.Fatal(err)
	}
	addSomeUse(t, f) // any edit stales the set-producing gate backend
	started, release := gate.Arm()
	e.MarkDirty(f)
	<-started // worker is parked inside Analyze for f
	e.Invalidate(f)
	release()
	// Liveness waits out the in-flight build (single-flight), sees its
	// result discarded, and builds on demand.
	live, err := e.Liveness(f)
	if err != nil {
		t.Fatal(err)
	}
	if live.Stale() {
		t.Fatal("on-demand rebuild after discarded background build is stale")
	}
	if got := e.Metrics().BackgroundRebuilds; got != 0 {
		t.Fatalf("BackgroundRebuilds = %d, want 0 (the build was superseded)", got)
	}
	if got := e.Resident(); got != 1 {
		t.Fatalf("Resident = %d, want 1 (the on-demand rebuild)", got)
	}
}

// A function evicted while queued for an async rebuild must not be
// resurrected into the cache when the worker reaches it: eviction bumps
// the generation and empties the slot, and the worker's dequeue check
// skips empty slots.
func TestEngineEvictedWhileQueuedNotResurrected(t *testing.T) {
	funcs := engineCorpus(t, 4, 33)
	f, g, h2, k := funcs[0], funcs[1], funcs[2], funcs[3]
	// One shard so LRU order is global and deterministic; cache of 2.
	e := NewEngine(EngineConfig{Config: Config{Backend: "gate"}, RebuildWorkers: 1, MaxCached: 2, Shards: 1})
	defer e.Close()
	e.Add(funcs...)
	if _, err := e.Liveness(f); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Liveness(g); err != nil {
		t.Fatal(err)
	}
	// Park the single worker on g's rebuild so f's dirty entry stays
	// queued behind it.
	addSomeUse(t, g)
	started, release := gate.Arm()
	e.MarkDirty(g)
	<-started
	// Queue f for rebuild, then evict it with cache pressure from two
	// on-demand builds (g is off the LRU while its rebuild is in flight,
	// so the tail is f).
	addSomeUse(t, f)
	e.MarkDirty(f)
	if got := e.Metrics().QueuedRebuilds; got != 1 {
		t.Fatalf("QueuedRebuilds = %d with the worker parked, want 1 (f)", got)
	}
	if _, err := e.Liveness(h2); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Liveness(k); err != nil { // overflows MaxCached: evicts f
		t.Fatal(err)
	}
	release()
	hf := e.lookup(f)
	waitFor(t, "worker to drain the queue", func() bool {
		if e.Metrics().QueuedRebuilds != 0 {
			return false
		}
		hf.shard.mu.Lock()
		defer hf.shard.mu.Unlock()
		return !hf.queued && !hf.building
	})
	hf.shard.mu.Lock()
	resurrected := hf.live != nil
	hf.shard.mu.Unlock()
	if resurrected {
		t.Fatal("evicted function was resurrected into the cache by its queued rebuild")
	}
	if got := e.Metrics().BackgroundRebuilds; got != 1 {
		t.Fatalf("BackgroundRebuilds = %d, want 1 (g only)", got)
	}
	// MarkDirty on the evicted function is a safe no-op.
	e.MarkDirty(f)
	if got := e.Metrics().QueuedRebuilds; got != 0 {
		t.Fatalf("QueuedRebuilds = %d after MarkDirty on an evicted function, want 0", got)
	}
	// And f still answers correctly on demand.
	ref, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	live, err := e.Liveness(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		f.Values(func(v *ir.Value) {
			if !v.Op.HasResult() {
				return
			}
			if live.IsLiveIn(v, b) != ref.IsLiveIn(v, b) {
				t.Fatalf("on-demand rebuild disagrees with fresh analysis at live-in(%s, %s)", v, b)
			}
		})
	}
}
