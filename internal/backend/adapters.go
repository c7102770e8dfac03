package backend

import (
	"fastliveness/internal/core"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/ir"
	"fastliveness/internal/lao"
	"fastliveness/internal/loops"
	"fastliveness/internal/pervar"
)

func init() {
	Register(checkerBackend{})
	Register(dataflowBackend{})
	Register(laoBackend{})
	Register(pervarBackend{})
	Register(loopsBackend{})
	Register(autoBackend{})
}

// ---- checker: the paper's R/T liveness checker (internal/core) ----

type checkerBackend struct{}

func (checkerBackend) Name() string { return "checker" }

func (b checkerBackend) Analyze(f *ir.Func) (Result, error) {
	p, err := Prepare(f)
	if err != nil {
		return nil, err
	}
	return b.AnalyzeWithPrep(f, p)
}

func (checkerBackend) AnalyzeWithPrep(f *ir.Func, p *Prep) (Result, error) {
	return NewCheckerResult(p, core.Options{}), nil
}

// CheckerResult adapts the R/T checker. A query reads v's def-use chain
// fresh and writes nothing shared, so one CheckerResult serves any number
// of concurrent queries.
type CheckerResult struct {
	prep    *Prep
	checker *core.Checker
	epochs  Epochs
}

// NewCheckerResult runs the R/T precomputation against p with explicit
// checker options (strategies and ablations); the registry's "checker"
// backend uses the paper's default options.
func NewCheckerResult(p *Prep, opts core.Options) *CheckerResult {
	return &CheckerResult{
		prep:    p,
		checker: core.NewFrom(p.Graph, p.DFS, p.Tree, opts),
		epochs:  EpochsOf(p.F),
	}
}

// NewCheckerResultFrom wraps an already-built checker — the snapshot-restore
// path, where the R/T arenas were adopted from disk via core.Adopt instead
// of recomputed. Epochs are read from p.F at wrap time, exactly as
// NewCheckerResult does, so staleness tracking is indistinguishable between
// the two construction paths.
func NewCheckerResultFrom(p *Prep, c *core.Checker) *CheckerResult {
	return &CheckerResult{prep: p, checker: c, epochs: EpochsOf(p.F)}
}

// Checker exposes the underlying core checker.
func (r *CheckerResult) Checker() *core.Checker { return r.checker }

// Prep exposes the CFG preparation the checker was built from.
func (r *CheckerResult) Prep() *Prep { return r.prep }

// UseChunk is how many use nodes a query translates at a time, into a
// stack array. Liveness is a disjunction over uses (Definitions 2 and 3:
// some use is reachable from q without passing def), and every step of
// Algorithms 2 and 3 that is not a per-use test ignores the use set, so
// asking the checker once per chunk and stopping at the first true answer
// is exact for any use count, with no heap scratch to own or share.
//
// Eight ints (64 bytes) is the largest array the amd64 compiler zeroes
// with inline stores; at 32 every query paid a runtime.duffzero call,
// about 2 % of the CPU of the compile workload's slowest procedure, where
// a query averages 1.1 uses.
const UseChunk = 8

// IsLiveIn implements Result (paper Algorithm 3).
func (r *CheckerResult) IsLiveIn(v *ir.Value, b *ir.Block) bool { return r.query(v, b, false) }

// IsLiveOut implements Result (paper Algorithm 2).
func (r *CheckerResult) IsLiveOut(v *ir.Value, b *ir.Block) bool { return r.query(v, b, true) }

// query asks the checker about v at b one chunk of v's uses at a time.
func (r *CheckerResult) query(v *ir.Value, b *ir.Block, out bool) bool {
	def, q := r.prep.Node(v.Block), r.prep.Node(b)
	var chunk [UseChunk]int
	for uses := v.Uses(); len(uses) > 0; {
		n := min(len(uses), UseChunk)
		for i, u := range uses[:n] {
			chunk[i] = r.prep.useNode(u)
		}
		uses = uses[n:]
		var live bool
		if out {
			live = r.checker.IsLiveOut(def, chunk[:n], q)
		} else {
			live = r.checker.IsLiveIn(def, chunk[:n], q)
		}
		if live {
			return true
		}
	}
	return false
}

// LiveInSet enumerates by querying every value — the checker deliberately
// provides only the characteristic function. Callers that enumerate sets
// on a hot path should use a set-producing backend (see AnalyzeSets).
func (r *CheckerResult) LiveInSet(b *ir.Block) []*ir.Value {
	return enumerate(r.prep.F, b, r.IsLiveIn)
}

// LiveOutSet enumerates by querying every value; see LiveInSet.
func (r *CheckerResult) LiveOutSet(b *ir.Block) []*ir.Value {
	return enumerate(r.prep.F, b, r.IsLiveOut)
}

// MemoryBytes implements Result.
func (r *CheckerResult) MemoryBytes() int { return r.checker.MemoryBytes() }

// Invalidation implements Result: only CFG edits invalidate R/T sets.
func (r *CheckerResult) Invalidation() Invalidation { return InvalidatedByCFGChanges }

// Epochs implements Result.
func (r *CheckerResult) Epochs() Epochs { return r.epochs }

// Backend implements Result.
func (r *CheckerResult) Backend() string { return "checker" }

// enumerate filters f's values through a characteristic function, in
// program order.
func enumerate(f *ir.Func, b *ir.Block, live func(*ir.Value, *ir.Block) bool) []*ir.Value {
	var out []*ir.Value
	f.Values(func(v *ir.Value) {
		if v.Op.HasResult() && live(v, b) {
			out = append(out, v)
		}
	})
	return out
}

// ---- shared adapter for the set-producing engines ----

// setsResult adapts an engine that materializes explicit per-block live
// sets. Queries are read-only lookups, safe for concurrent use. liveInIDs
// and liveOutIDs enumerate value IDs per block when the engine exposes its
// sets by value ID; when nil (the LAO backend, whose sets hold dense
// variable indices), enumeration falls back to per-value membership tests.
type setsResult struct {
	name                  string
	f                     *ir.Func
	isLiveIn, isLiveOut   func(*ir.Value, *ir.Block) bool
	liveInIDs, liveOutIDs func(*ir.Block) []int
	memoryBytes           int
	valByID               []*ir.Value
	epochs                Epochs
}

func newSetsResult(name string, f *ir.Func) *setsResult {
	r := &setsResult{name: name, f: f, valByID: make([]*ir.Value, f.NumValues()), epochs: EpochsOf(f)}
	f.Values(func(v *ir.Value) { r.valByID[v.ID] = v })
	return r
}

func (r *setsResult) IsLiveIn(v *ir.Value, b *ir.Block) bool  { return r.isLiveIn(v, b) }
func (r *setsResult) IsLiveOut(v *ir.Value, b *ir.Block) bool { return r.isLiveOut(v, b) }

func (r *setsResult) LiveInSet(b *ir.Block) []*ir.Value {
	return r.fromIDs(b, r.liveInIDs, r.isLiveIn)
}

func (r *setsResult) LiveOutSet(b *ir.Block) []*ir.Value {
	return r.fromIDs(b, r.liveOutIDs, r.isLiveOut)
}

func (r *setsResult) fromIDs(b *ir.Block, ids func(*ir.Block) []int, live func(*ir.Value, *ir.Block) bool) []*ir.Value {
	if ids == nil {
		return enumerate(r.f, b, live)
	}
	var out []*ir.Value
	for _, id := range ids(b) {
		if v := r.valByID[id]; v != nil {
			out = append(out, v)
		}
	}
	return out
}

func (r *setsResult) MemoryBytes() int           { return r.memoryBytes }
func (r *setsResult) Invalidation() Invalidation { return InvalidatedByAnyEdit }
func (r *setsResult) Epochs() Epochs             { return r.epochs }
func (r *setsResult) Backend() string            { return r.name }

// ---- dataflow: textbook iterative bit-vector solver ----

type dataflowBackend struct{}

func (dataflowBackend) Name() string { return "dataflow" }

func (dataflowBackend) Analyze(f *ir.Func) (Result, error) {
	df := dataflow.Analyze(f)
	r := newSetsResult("dataflow", f)
	r.isLiveIn, r.isLiveOut = df.IsLiveIn, df.IsLiveOut
	r.liveInIDs, r.liveOutIDs = df.LiveInIDs, df.LiveOutIDs
	r.memoryBytes = df.MemoryBytes()
	return r, nil
}

// ---- lao: the paper's §6.2 "native" baseline (full variable universe) ----

type laoBackend struct{}

func (laoBackend) Name() string { return "lao" }

func (laoBackend) Analyze(f *ir.Func) (Result, error) {
	la := lao.Analyze(f, lao.Options{})
	r := newSetsResult("lao", f)
	r.isLiveIn, r.isLiveOut = la.IsLiveIn, la.IsLiveOut
	r.memoryBytes = la.MemoryBytes()
	return r, nil
}

// ---- pervar: Appel–Palsberg per-variable backward walks ----

type pervarBackend struct{}

func (pervarBackend) Name() string { return "pervar" }

func (pervarBackend) Analyze(f *ir.Func) (Result, error) {
	pv := pervar.Analyze(f)
	r := newSetsResult("pervar", f)
	r.isLiveIn, r.isLiveOut = pv.IsLiveIn, pv.IsLiveOut
	r.liveInIDs, r.liveOutIDs = pv.LiveInIDs, pv.LiveOutIDs
	r.memoryBytes = pv.MemoryBytes()
	return r, nil
}

// ---- loops: the §8 loop-nesting-forest engine (reducible CFGs only) ----

type loopsBackend struct{}

func (loopsBackend) Name() string { return "loops" }

func (b loopsBackend) Analyze(f *ir.Func) (Result, error) {
	p, err := Prepare(f)
	if err != nil {
		return nil, err
	}
	return b.AnalyzeWithPrep(f, p)
}

// AnalyzeWithPrep returns loops.ErrIrreducible (wrapped) on irreducible
// control flow; callers that must not fail use the auto backend, which
// falls back to the checker there.
func (loopsBackend) AnalyzeWithPrep(f *ir.Func, p *Prep) (Result, error) {
	lf, err := loops.LivenessFrom(f, p.Graph, p.DFS, p.Tree)
	if err != nil {
		return nil, err
	}
	r := newSetsResult("loops", f)
	r.isLiveIn, r.isLiveOut = lf.IsLiveIn, lf.IsLiveOut
	r.liveInIDs, r.liveOutIDs = lf.LiveInIDs, lf.LiveOutIDs
	r.memoryBytes = lf.MemoryBytes()
	return r, nil
}

// ---- auto: adaptive per-function selection ----

// autoBackend picks an engine per function: the loop-forest engine on
// reducible CFGs (two passes, no fixed point, explicit sets for free) and
// the R/T checker on irreducible ones (where the loop-forest algorithm
// does not apply but checker queries remain exact). The returned Result
// reports the chosen engine's name via Backend(), which is how per-backend
// stats see through the selection.
type autoBackend struct{}

func (autoBackend) Name() string { return AutoName }

func (b autoBackend) Analyze(f *ir.Func) (Result, error) {
	p, err := Prepare(f)
	if err != nil {
		return nil, err
	}
	return b.AnalyzeWithPrep(f, p)
}

func (autoBackend) AnalyzeWithPrep(f *ir.Func, p *Prep) (Result, error) {
	if p.Reducible() {
		return loopsBackend{}.AnalyzeWithPrep(f, p)
	}
	return checkerBackend{}.AnalyzeWithPrep(f, p)
}

// AnalyzeSets picks a set-producing backend for callers that will
// enumerate full live-in/live-out sets by one fixed rule: the loop-forest
// engine on reducible CFGs, the iterative data-flow solver otherwise. The
// rule is not a measured cost ranking. This is what
// fastliveness.Liveness delegates LiveIn/LiveOut enumeration to, instead
// of issuing one checker query per value.
func AnalyzeSets(f *ir.Func, p *Prep) (Result, error) {
	if p == nil {
		var err error
		if p, err = Prepare(f); err != nil {
			return nil, err
		}
	}
	if p.Reducible() {
		return loopsBackend{}.AnalyzeWithPrep(f, p)
	}
	return dataflowBackend{}.Analyze(f)
}
