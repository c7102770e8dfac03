package fastliveness

// Shared test helpers for forcing build interleavings. Deterministic
// interleavings are forced with a registered "gate" test backend: it
// answers exactly like dataflow (so it is set-producing — any edit stales
// it) but can be armed to block the next Analyze until the test releases
// it, letting the tests park a build mid-flight and race cancellation,
// invalidation or Close against it.

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

func (g *gateBackend) Analyze(f *ir.Func, p *backend.Prep) (backend.Result, error) {
	g.mu.Lock()
	started, release := g.started, g.release
	g.started, g.release = nil, nil
	g.mu.Unlock()
	if started != nil {
		close(started)
		<-release
	}
	return g.inner.Analyze(f, p)
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
// a time-paced effect (a quarantine retry past its backoff) has landed.
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
