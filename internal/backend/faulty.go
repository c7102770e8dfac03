package backend

import (
	"sync/atomic"

	"fastliveness/internal/faults"
	"fastliveness/internal/ir"
)

// Fault-injection sites a Faulty backend fires on every Analyze: the
// per-function site first (FaultSiteAnalyze + ":" + function name), then
// the generic one, so tests can target one function or all of them.
const FaultSiteAnalyze = "backend.analyze"

// Faulty wraps another backend with a fault-injection seam at its Analyze
// boundary, for chaos tests that need analyses to fail, panic or stall on
// a deterministic schedule. Registration is global and permanent (the
// registry forbids duplicates), so a test binary registers one Faulty and
// re-arms it per test with SetInjector; a nil injector — the initial
// state — makes it behave exactly like the wrapped backend.
type Faulty struct {
	name     string
	inner    Backend
	injector atomic.Pointer[faults.Injector]
}

// NewFaulty wraps inner under the given registry name and registers it.
func NewFaulty(name string, inner Backend) *Faulty {
	b := &Faulty{name: name, inner: inner}
	Register(b)
	return b
}

// SetInjector arms (or, with nil, disarms) the injector the next Analyze
// calls will fire.
func (b *Faulty) SetInjector(in *faults.Injector) {
	b.injector.Store(in)
}

// Name is the registry key.
func (b *Faulty) Name() string { return b.name }

// Analyze fires the armed injector — injected errors surface as analysis
// errors, injected panics unwind exactly like a backend bug — and then
// delegates to the wrapped backend.
func (b *Faulty) Analyze(f *ir.Func, p *Prep) (Result, error) {
	in := b.injector.Load()
	if err := in.Fire(FaultSiteAnalyze + ":" + f.Name); err != nil {
		return nil, err
	}
	if err := in.Fire(FaultSiteAnalyze); err != nil {
		return nil, err
	}
	return b.inner.Analyze(f, p)
}
