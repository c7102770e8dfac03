// Package fastliveness is the public face of this repository: a Go
// implementation of Boissinot, Hack, Grund, Dupont de Dinechin and
// Rastello, "Fast Liveness Checking for SSA-Form Programs" (CGO 2008).
//
// It binds the CFG-only precomputation of internal/core to the SSA IR of
// internal/ir: Analyze precomputes the R and T sets for a function's CFG,
// and IsLiveIn/IsLiveOut answer queries for any variable using nothing but
// that precomputation, the variable's definition block and its def-use
// chain, read fresh at query time.
//
// Consequently — the paper's headline property — adding or removing
// instructions, variables or uses never invalidates an Analyze result;
// only changing the CFG itself (adding/removing blocks or edges) requires
// a new Analyze call. SSA destruction exploits exactly that: it splits
// critical edges once up front, analyzes, and then queries freely while it
// rewrites the program.
//
// The checker is one of five interchangeable engines behind the
// internal/backend registry (the others are the baselines of the paper's
// evaluation: iterative data-flow, the LAO-style native solver, the
// per-variable walker and the loop-forest engine). Config.Backend selects
// one by name; "auto" picks per function.
//
// A query writes nothing but LiveIn/LiveOut's lazily built sets, which a
// mutex guards, so every Liveness is safe for concurrent queries under any
// backend: goroutines share one handle rather than each holding their own.
//
// Example:
//
//	live, err := fastliveness.Analyze(f, fastliveness.Config{})
//	if err != nil { ... }
//	if live.IsLiveOut(v, b) { ... }
package fastliveness

import (
	"sync"

	"fastliveness/internal/backend"
	"fastliveness/internal/core"
	"fastliveness/internal/ir"
)

// Strategy selects how the T sets are precomputed; see internal/core.
type Strategy = core.Strategy

// Re-exported strategies.
const (
	// StrategyPropagate is the paper's practical §5.2 scheme (the
	// default: the zero value).
	StrategyPropagate = core.StrategyPropagate
	// StrategyExact evaluates the paper's Definition 5 directly.
	StrategyExact = core.StrategyExact
)

// Config tunes the analysis. The zero value is the paper's configuration.
type Config struct {
	// Strategy selects the T-set precomputation scheme. It tunes the
	// checker and is ignored by the other backends.
	Strategy Strategy
	// Backend names the liveness engine serving the queries: one of
	// Backends() — "checker" (the paper's R/T checker, the default),
	// "dataflow", "lao", "pervar", "loops", or "auto" (per-function
	// adaptive selection). The empty string means "checker".
	//
	// Every backend answers queries identically (the differential suite
	// proves it); they differ in precompute cost, memory, and what
	// invalidates them — set-producing backends are invalidated by any
	// program edit, the checker only by CFG changes.
	Backend string
	// SkipVerify skips the structural verifier (ir.Verify) at the head of
	// Analyze. The caller then warrants the function is well formed; a
	// malformed function yields undefined answers instead of an error. Set
	// it when the IR was already verified — a frontend that validates its
	// output, or a benchmark isolating analysis cost. The Engine manages
	// this itself: it verifies each function once per edit epoch and skips
	// re-verification on eviction refills and snapshot restores, so
	// engine builds never pay the verifier twice for the same IR.
	SkipVerify bool
}

// Backends lists the registered backend names accepted by Config.Backend.
func Backends() []string { return backend.Names() }

// Liveness answers liveness queries for one function. It is bound to the
// function's CFG at Analyze time; see the package comment for what
// invalidates it. It is safe for concurrent queries: any number of
// goroutines may share one Liveness (against an unchanging program).
type Liveness struct {
	f    *ir.Func
	prep *backend.Prep
	res  backend.Result
	// enum is the lazily built set-producing result behind LiveIn/LiveOut,
	// the one field a query may write; enumMu guards it.
	enumMu sync.Mutex
	enum   backend.Result
}

// Analyze precomputes liveness for f with the backend named by the config
// (the paper's R/T checker unless Config.Backend says otherwise). The
// function must be well formed (ir.Verify) with every block reachable from
// the entry, and queries assume strict SSA (ssa.VerifyStrict); liveness of
// a variable whose definition does not dominate its uses is undefined.
func Analyze(f *ir.Func, config Config) (*Liveness, error) {
	var prep *backend.Prep
	var err error
	if config.SkipVerify {
		prep, err = backend.PrepareUnverified(f)
	} else {
		prep, err = backend.Prepare(f)
	}
	if err != nil {
		return nil, err
	}
	var res backend.Result
	switch config.Backend {
	case "", backend.DefaultName:
		// The checker honors the strategy; going through the registry
		// would lose it.
		res = backend.NewCheckerResult(prep, core.Options{Strategy: config.Strategy})
	default:
		b, err := backend.Get(config.Backend)
		if err != nil {
			return nil, err
		}
		if res, err = backend.AnalyzeWith(b, f, prep); err != nil {
			return nil, err
		}
	}
	return &Liveness{f: f, prep: prep, res: res}, nil
}

// IsLiveIn reports whether v is live-in at block b (paper Definition 2 /
// Algorithm 3). A checker query reads v's def-use chain (Definition 1
// placement) fresh.
func (l *Liveness) IsLiveIn(v *ir.Value, b *ir.Block) bool { return l.res.IsLiveIn(v, b) }

// IsLiveOut reports whether v is live-out at block b (paper Definition 3 /
// Algorithm 2).
func (l *Liveness) IsLiveOut(v *ir.Value, b *ir.Block) bool { return l.res.IsLiveOut(v, b) }

// sets returns the set-producing result behind LiveIn/LiveOut: the
// analysis itself when it already materializes sets (and is still fresh),
// else backend.AnalyzeSets's pick for this CFG (loop-forest where
// reducible, iterative data-flow otherwise), built once and cached until
// the function's epochs say it is stale — enumeration after an
// instruction edit transparently re-analyzes.
func (l *Liveness) sets() backend.Result {
	l.enumMu.Lock()
	if l.enum != nil && backend.Stale(l.enum, l.f) {
		// The cached enumeration describes an earlier epoch; rebuild.
		l.enum = nil
	}
	enum := l.enum
	l.enumMu.Unlock()
	if enum != nil {
		return enum
	}
	// A rebuild reuses the CFG preparation from Analyze time, which is
	// only sound while the CFG is unchanged. A CFG edit therefore fails
	// closed here rather than certifying sets computed over a dead CFG as
	// fresh — the same contract as every query path, but checked.
	if l.f.CFGEpoch() != l.res.Epochs().CFG {
		panic("fastliveness: LiveIn/LiveOut after a CFG edit: the analysis no longer describes " +
			l.f.Name + "; re-Analyze, or hold the handle through an Engine, which rebuilds automatically")
	}
	// Build outside the lock: enumMu only guards the pointer, so an Engine
	// reporting MemoryBytes never stalls behind a set analysis in flight.
	if l.res.Invalidation() == backend.InvalidatedByAnyEdit && !backend.Stale(l.res, l.f) {
		enum = l.res
	} else {
		e, err := backend.AnalyzeSets(l.f, l.prep)
		if err != nil {
			// The prep is already built and verified; set engines cannot
			// fail on it.
			panic("fastliveness: set enumeration backend: " + err.Error())
		}
		enum = e
	}
	l.enumMu.Lock()
	if l.enum == nil {
		l.enum = enum
	} else {
		enum = l.enum
	}
	l.enumMu.Unlock()
	return enum
}

// LiveIn enumerates the variables live-in at b. It delegates to a
// set-producing backend (built lazily on first call and cached) instead of
// issuing one checker query per value. The cached sets are keyed by the
// function's edit epochs: enumeration after an instruction edit rebuilds
// them transparently, so the answers always describe the current program.
// A CFG edit still requires a re-Analyze, as for every query path — a
// rebuild attempted across one panics instead of answering from the dead
// CFG.
func (l *Liveness) LiveIn(b *ir.Block) []*ir.Value { return l.sets().LiveInSet(b) }

// LiveOut enumerates the variables live-out at b; see LiveIn.
func (l *Liveness) LiveOut(b *ir.Block) []*ir.Value { return l.sets().LiveOutSet(b) }

// Stale reports whether this analysis no longer describes its function,
// per the backend's invalidation class: any CFG edit since Analyze stales
// every backend, an instruction edit only the set-producing ones — the
// checker handle stays fresh, the paper's §4 property as a runtime check.
// The Engine uses this to rebuild exactly the analyses that edits actually
// killed.
func (l *Liveness) Stale() bool { return backend.Stale(l.res, l.f) }

// Interfere reports whether the live ranges of x and y overlap, using the
// SSA interference test of Budimlić et al. that the paper's evaluation is
// built on (§6.2): order the two values so that x's definition dominates
// y's; they interfere iff x is still live directly after y's definition —
// at block granularity, iff x is live-out of y's block or has a use in it
// at or after y's definition point. Values whose definitions are
// dominance-incomparable never interfere in strict SSA.
//
// This is what register allocators and coalescers (see examples/jitregalloc
// and internal/destruct) ask instead of materializing an interference
// graph.
func (l *Liveness) Interfere(x, y *ir.Value) bool {
	if x == y {
		return false
	}
	bx, by := l.prep.Node(x.Block), l.prep.Node(y.Block)
	switch {
	case l.prep.Tree.Dominates(bx, by):
	case l.prep.Tree.Dominates(by, bx):
		x, y = y, x
	default:
		return false
	}
	if x.Block == y.Block && x.Block.ValueIndex(x) > y.Block.ValueIndex(y) {
		x, y = y, x
	}
	if l.IsLiveOut(x, y.Block) {
		return true
	}
	yPos := y.Block.ValueIndex(y)
	for _, u := range x.Uses() {
		switch {
		case u.UserBlock == y.Block:
			return true // control operand: used at the block's end
		case u.User == nil:
			continue
		case u.User.Op == ir.OpPhi:
			if u.User.Block.Preds[u.Index].B == y.Block {
				return true // φ operand: used at this block's end
			}
		case u.User.Block == y.Block && y.Block.ValueIndex(u.User) > yPos:
			return true
		}
	}
	return false
}

// Reducible reports whether the function's CFG is reducible; on reducible
// CFGs checker queries take the Theorem 2 single-test fast path.
func (l *Liveness) Reducible() bool {
	if cr, ok := l.res.(*backend.CheckerResult); ok {
		return cr.Checker().Reducible()
	}
	return l.prep.Reducible()
}

// MemoryBytes reports the footprint of the precomputed sets (§6.1),
// including the enumeration sets LiveIn/LiveOut may have materialized on
// top of the primary analysis.
func (l *Liveness) MemoryBytes() int {
	total := l.res.MemoryBytes()
	l.enumMu.Lock()
	if l.enum != nil && l.enum != l.res {
		total += l.enum.MemoryBytes()
	}
	l.enumMu.Unlock()
	return total
}

// Backend names the backend serving this handle's queries. With
// Config.Backend "auto" this is the engine the selector picked.
func (l *Liveness) Backend() string { return l.res.Backend() }

// Func returns the analyzed function.
func (l *Liveness) Func() *ir.Func { return l.f }
