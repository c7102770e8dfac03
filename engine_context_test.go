package fastliveness

// Context-cancellation and lifecycle tests: waiters parked on a build
// wake promptly on cancellation or Close, a cancelled builder detaches
// without ever half-caching its result, a superseded build is never
// cached, and the error surface wraps the package sentinels.

import (
	"context"
	"errors"
	"testing"
	"time"
)

// recvErr waits for one error with a test deadline.
func recvErr(t *testing.T, what string, ch <-chan error) error {
	t.Helper()
	select {
	case err := <-ch:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("timed out waiting for %s", what)
		return nil
	}
}

// A caller parked on another goroutine's in-flight build must wake and
// return promptly when its context is cancelled, while the build itself
// carries on and serves everyone else.
func TestEngineContextCancelWaiter(t *testing.T) {
	f := engineCorpus(t, 1, 301)[0]
	e := NewEngine(EngineConfig{Config: Config{Backend: "gate"}})
	e.Add(f)

	started, release := gate.Arm()
	builderErr := make(chan error, 1)
	go func() {
		_, err := e.Liveness(f)
		builderErr <- err
	}()
	<-started // the builder is parked inside Analyze

	ctx, cancel := context.WithCancel(context.Background())
	waiterErr := make(chan error, 1)
	go func() {
		_, err := e.LivenessContext(ctx, f)
		waiterErr <- err
	}()
	cancel()
	if err := recvErr(t, "cancelled waiter to return", waiterErr); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter got %v, want context.Canceled", err)
	}

	release()
	if err := recvErr(t, "builder to finish", builderErr); err != nil {
		t.Fatal(err)
	}
	// The engine is fully usable after the cancellation.
	if _, err := e.Liveness(f); err != nil {
		t.Fatal(err)
	}
}

// A caller that is itself running the build must return promptly on
// cancellation while the build detaches, completes, and publishes — never
// a half-cached result, never wasted work.
func TestEngineContextCancelBuilderDetaches(t *testing.T) {
	f := engineCorpus(t, 1, 302)[0]
	e := NewEngine(EngineConfig{Config: Config{Backend: "gate"}})
	e.Add(f)

	started, release := gate.Arm()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := e.LivenessContext(ctx, f)
		errCh <- err
	}()
	<-started // the detached build is parked inside Analyze
	cancel()
	// The initiating caller returns while the build is still blocked.
	if err := recvErr(t, "cancelled builder to return", errCh); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled builder got %v, want context.Canceled", err)
	}

	// Releasing the gate lets the detached build publish on its own.
	release()
	waitFor(t, "detached build to publish", func() bool { return e.Resident() == 1 })
	if _, err := e.Liveness(f); err != nil {
		t.Fatal(err)
	}
}

// PrecomputeContext returns ctx.Err() promptly when cancelled mid-corpus
// and leaves the engine fully usable: the remaining functions build on
// demand or via a later Precompute.
func TestEnginePrecomputeContextCancel(t *testing.T) {
	funcs := engineCorpus(t, 6, 303)
	e := NewEngine(EngineConfig{Config: Config{Backend: "gate"}, Parallelism: 2})
	e.Add(funcs...)

	started, release := gate.Arm()
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- e.PrecomputeContext(ctx) }()
	<-started // one worker is parked inside a build
	cancel()
	if err := recvErr(t, "cancelled precompute to return", errCh); !errors.Is(err, context.Canceled) {
		t.Fatalf("PrecomputeContext returned %v, want context.Canceled", err)
	}
	release()

	// A later full precompute finishes the job.
	if err := e.Precompute(); err != nil {
		t.Fatal(err)
	}
	if e.Resident() != len(funcs) {
		t.Fatalf("%d resident analyses after re-precompute, want %d", e.Resident(), len(funcs))
	}
	for _, f := range funcs {
		if _, err := e.Liveness(f); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
	}
}

// Every "not registered" error wraps ErrUnknownFunc, on all entry points.
func TestEngineUnknownFuncSentinel(t *testing.T) {
	known := engineCorpus(t, 2, 304)
	stranger := known[1] // registered nowhere
	e := NewEngine(EngineConfig{})
	e.Add(known[0])

	if _, err := e.Liveness(stranger); !errors.Is(err, ErrUnknownFunc) {
		t.Fatalf("Liveness: %v, want ErrUnknownFunc", err)
	}
	if _, err := e.BatchIsLiveIn(stranger, nil); !errors.Is(err, ErrUnknownFunc) {
		t.Fatalf("BatchIsLiveIn: %v, want ErrUnknownFunc", err)
	}
	if _, err := e.BatchIsLiveOut(stranger, nil); !errors.Is(err, ErrUnknownFunc) {
		t.Fatalf("BatchIsLiveOut: %v, want ErrUnknownFunc", err)
	}
	if _, err := e.Oracle(stranger); !errors.Is(err, ErrUnknownFunc) {
		t.Fatalf("Oracle: %v, want ErrUnknownFunc", err)
	}
}

// Close is terminal: subsequent requests — analyses, oracles, batches,
// precomputes — fail fast with ErrEngineClosed, a second Close is a
// no-op, and already-handed-out analyses keep answering.
func TestEngineCloseSentinel(t *testing.T) {
	funcs := engineCorpus(t, 2, 305)
	e := NewEngine(EngineConfig{})
	e.Add(funcs...)
	live, err := e.Liveness(funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	qs := allQueries(funcs[0])
	if len(qs) == 0 {
		t.Fatal("empty query set")
	}
	want := live.IsLiveIn(qs[0].V, qs[0].B)

	e.Close()
	e.Close() // idempotent

	if _, err := e.Liveness(funcs[0]); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Liveness after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := e.Oracle(funcs[1]); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Oracle after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := e.BatchIsLiveIn(funcs[0], qs[:1]); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("BatchIsLiveIn after Close: %v, want ErrEngineClosed", err)
	}
	if _, err := e.BatchIsLiveOut(funcs[0], qs[:1]); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("BatchIsLiveOut after Close: %v, want ErrEngineClosed", err)
	}
	if err := e.Precompute(); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("Precompute after Close: %v, want ErrEngineClosed", err)
	}
	// The analysis handed out before Close still answers.
	if got := live.IsLiveIn(qs[0].V, qs[0].B); got != want {
		t.Fatalf("handed-out analysis answered %v after Close, want %v", got, want)
	}
}

// Close must wake waiters parked on an in-flight build so they observe
// the closed engine instead of sleeping until the build publishes.
func TestEngineCloseWakesWaiters(t *testing.T) {
	f := engineCorpus(t, 1, 306)[0]
	e := NewEngine(EngineConfig{Config: Config{Backend: "gate"}})
	e.Add(f)

	started, release := gate.Arm()
	builderDone := make(chan error, 1)
	go func() {
		_, err := e.Liveness(f)
		builderDone <- err
	}()
	<-started

	waiterErr := make(chan error, 1)
	go func() {
		_, err := e.Liveness(f)
		waiterErr <- err
	}()
	// The waiter may not have parked yet; either way it must observe the
	// Close — parked waiters via the broadcast, new arrivals via the
	// loop's closed check.
	e.Close()
	if err := recvErr(t, "waiter to observe Close", waiterErr); !errors.Is(err, ErrEngineClosed) {
		t.Fatalf("waiter got %v, want ErrEngineClosed", err)
	}
	release()
	recvErr(t, "builder to finish", builderDone)
}

// A build superseded mid-flight (Invalidate bumps the generation while
// the builder is inside Analyze) is returned to its caller, whose request
// predates the invalidation, but never cached: the next request builds
// afresh.
func TestEngineSupersededBuildNotCached(t *testing.T) {
	f := engineCorpus(t, 1, 77)[0]
	e := NewEngine(EngineConfig{Config: Config{Backend: "gate"}})
	defer e.Close()
	e.Add(f)

	started, release := gate.Arm()
	type result struct {
		live *Liveness
		err  error
	}
	builder := make(chan result, 1)
	go func() {
		live, err := e.Liveness(f)
		builder <- result{live, err}
	}()
	<-started // the builder is parked inside Analyze
	e.Invalidate(f)
	release()
	var r result
	select {
	case r = <-builder:
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for the superseded builder")
	}
	if r.err != nil || r.live == nil {
		t.Fatalf("superseded build returned (%v, %v), want its analysis", r.live, r.err)
	}
	if got := e.Resident(); got != 0 {
		t.Fatalf("Resident = %d after a superseded build, want 0 (not cached)", got)
	}
	builds := e.Metrics().Builds
	live, err := e.Liveness(f)
	if err != nil {
		t.Fatal(err)
	}
	if live == r.live {
		t.Fatal("the superseded analysis was served from the cache")
	}
	if got := e.Metrics().Builds; got != builds+1 {
		t.Fatalf("Builds = %d after the next request, want %d (a fresh build)", got, builds+1)
	}
	if got := e.Resident(); got != 1 {
		t.Fatalf("Resident = %d, want 1 (the fresh build)", got)
	}
}
