// Program-level engine: many functions, one analysis service.
//
// The per-function checker of this package precomputes R/T sets in
// near-linear time, but a whole program has thousands of functions and the
// precomputations are completely independent — the natural axis of
// parallelism for a compiler server or JIT that must analyze a module, not
// a procedure. Engine owns that axis: it registers many ir.Funcs,
// precomputes their analyses across a bounded worker pool, keeps the
// results behind thread-safe LRU-cached handles, and batches queries so
// callers amortize per-query overhead.
//
// Concurrency layout:
//
//   - The function index is a lock-free sync.Map; looking up the handle
//     for a function takes no lock at all.
//   - One engine mutex guards the build bookkeeping: a condition variable
//     build-waiters sleep on and one LRU list of resident analyses. A
//     query takes it only to fetch an analysis, never to answer from one.
//   - Per-function staleness is an epoch comparison against atomic
//     counters (ir.Func.CFGEpoch/InstrEpoch) — no lock on that check.
//   - There is one build path: the query path's single-flight startBuild.
//     A stale analysis is rebuilt by the first request that finds it
//     stale; under the default checker only CFG edits make it stale (the
//     paper's §4 property).

package fastliveness

import (
	"container/list"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"fastliveness/internal/backend"
	"fastliveness/internal/ir"
	"fastliveness/internal/retry"
	"fastliveness/internal/telemetry"
)

// Quarantine pacing: how many backoff-paced retries a panicking build
// gets before the function fails fast until its next edit, and the
// decorrelated-jitter backoff bounds between retries.
const (
	defaultMaxBuildRetries = 2
	quarantineBackoffBase  = 2 * time.Millisecond
	quarantineBackoffCap   = 250 * time.Millisecond
)

// EngineConfig tunes a program-level Engine. The zero value analyzes with
// the paper's per-function configuration, uses one worker per CPU and
// caches every analysis.
type EngineConfig struct {
	// Config is the per-function analysis configuration.
	Config Config
	// Parallelism bounds the precompute worker pool and the fan-out of
	// large batched queries. 0 means GOMAXPROCS.
	Parallelism int
	// MaxCached bounds how many per-function analyses stay resident; the
	// least recently used are evicted and transparently rebuilt on the
	// next request. 0 means unlimited.
	MaxCached int
	// SnapshotStore adds a persistent disk tier under the LRU (see
	// snapshot.go): analysis builds first try a fingerprint-matched
	// snapshot load, and full precomputes are written back for future
	// processes; each write-back is on disk when the build that produced it
	// returns. Nil disables the tier. Only the checker backend (the
	// default) uses it; its precomputation is the CFG-only one that stays
	// valid across instruction edits and hence across runs. The store's
	// I/O sits behind a circuit breaker: a failing or slow disk degrades
	// builds to recomputation, never to an error or a wrong answer.
	SnapshotStore *SnapshotStore
	// Tracer receives the engine's lifecycle events (build start/end,
	// query batches, snapshot loads/saves, quarantine enter/clear,
	// breaker transitions). Callbacks run
	// synchronously on the emitting goroutine, sometimes under engine
	// locks — they must be fast, must not block, and must not call back
	// into the engine. Nil means no tracing (zero overhead beyond the
	// always-on atomic counters behind Metrics).
	Tracer telemetry.Tracer
}

func (c EngineConfig) workers() int {
	if c.Parallelism > 0 {
		return c.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Query is one liveness question: is V live (in or out, per the method
// called) at block B. V and B must belong to the function the batch is
// issued against.
type Query struct {
	V *ir.Value
	B *ir.Block
}

// handle is the engine's per-function cache slot. The irMu field guards
// the function's IR structure against Engine.Edit; every other field is
// guarded by the engine mutex, except that the single in-flight builder
// (building set, see startBuild) owns st.verified.
type handle struct {
	f *ir.Func

	// irMu is the function-structure guard: Edit write-locks it around
	// mutations; builds, batches and Oracle queries read-lock it around
	// IR walks. Callers that never call Edit pay only uncontended RLocks.
	irMu sync.RWMutex

	live     *Liveness
	st       buildState
	building bool
	gen      int // bumped by invalidation and eviction; in-flight builds from older gens are not cached
	elem     *list.Element
}

// buildState is what the engine has learned about building a function,
// true only as of the edit epochs it is stamped with (the paper's §4
// property: the precomputation depends only on the IR those epochs name).
// resetState clears it when the epochs move or on Invalidate.
type buildState struct {
	at backend.Epochs
	// err is the last build's failure. When it is a *BuildPanicError the
	// function is quarantined: panics counts the consecutive panicking
	// builds, retryAt gates the next backoff-paced retry, and backoff
	// produces the decorrelated-jitter delays.
	err     error
	panics  int
	retryAt time.Time
	backoff *retry.Backoff
	// verified records that ir.Verify passed, so rebuilds, eviction
	// refills and snapshot restores of unchanged IR skip the verifier's
	// full IR walk.
	verified bool
}

// Engine analyzes a whole program: a set of functions registered with Add
// (or all at once via AnalyzeProgram), precomputed in parallel by
// Precompute, and queried through per-function Liveness handles, Oracles
// or the batched query methods. All methods are safe for concurrent use,
// and so is every Liveness the engine hands out. Every method blocks until
// its answer is ready: a build is near-linear in the function's size and
// runs on the goroutine that requested it, so there is nothing to cancel.
//
// Staleness is handled automatically: every cached analysis records the
// function's edit epochs (ir.Func.CFGEpoch/InstrEpoch), and Liveness
// re-analyzes exactly when the recorded epochs say an intervening edit
// invalidated the resident result for the configured backend's
// invalidation class. With the default checker that means rebuilds happen
// only after CFG edits — instruction-only edits (spill code, copy
// insertion, φ elimination) are served by the existing precomputation, the
// paper's §4 property. With a set-producing backend ("dataflow", "lao" or
// "pervar") any edit triggers a rebuild on the next request. Rebuilds
// reports how many staleness-forced re-analyses that has cost.
//
// The one hazard left with the caller is handle lifetime: a *Liveness
// obtained before an edit keeps answering against the pre-edit program.
// Request handles through the engine (or use Oracle, which re-fetches on
// staleness) instead of holding them across edits.
type Engine struct {
	config EngineConfig

	regMu sync.Mutex // guards funcs
	funcs []*ir.Func // registration order: the deterministic program order
	index sync.Map   // map[*ir.Func]*handle; lock-free on the query path

	// mu guards every handle's build bookkeeping and lru; cond is the
	// condition variable build-waiters sleep on.
	mu   sync.Mutex
	cond *sync.Cond
	lru  *list.List // resident handles, most recently used first

	resident atomic.Int64 // resident analyses: lru.Len(), readable without mu
	snap     snapshotCounters
	closed   atomic.Bool // set by Close; engine methods then fail fast

	// buildRetries is the quarantine's retry budget: defaultMaxBuildRetries.
	buildRetries int

	// tracer is config.Tracer or NopTracer, so emit sites never nil-check;
	// met is the atomic instrument block behind Metrics()/WriteMetrics.
	// unobserve detaches the engine's breaker-transition observer (set only
	// for a traced engine with a store) from the (possibly shared)
	// SnapshotStore at Close.
	tracer    telemetry.Tracer
	met       engineMetrics
	unobserve func()
}

// NewEngine returns an empty engine; register functions with Add.
func NewEngine(config EngineConfig) *Engine {
	e := &Engine{config: config, lru: list.New(), tracer: config.Tracer, buildRetries: defaultMaxBuildRetries}
	e.cond = sync.NewCond(&e.mu)
	if e.tracer == nil {
		e.tracer = telemetry.NopTracer{}
	}
	if config.SnapshotStore != nil && config.Tracer != nil {
		// Forward the (shared) store's breaker transitions to this engine's
		// tracer; Close detaches. The closure holds the tracer, never the
		// engine, so the store never keeps an engine reachable.
		tr := config.Tracer
		e.unobserve = config.SnapshotStore.observeBreaker(func(from, to retry.State) {
			tr.BreakerTransition(from.String(), to.String())
		})
	}
	return e
}

// AnalyzeProgram builds an engine over funcs and precomputes every
// analysis across the configured worker pool. It fails with the first
// error in registration order; the engine remains usable for the
// functions that analyzed cleanly.
func AnalyzeProgram(funcs []*ir.Func, config EngineConfig) (*Engine, error) {
	e := NewEngine(config)
	e.Add(funcs...)
	if err := e.Precompute(); err != nil {
		return e, err
	}
	return e, nil
}

// Add registers functions with the engine. Registration is cheap — no
// analysis runs until Precompute or the first query. Re-adding a
// registered function is a no-op.
func (e *Engine) Add(funcs ...*ir.Func) {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	for _, f := range funcs {
		if _, ok := e.index.Load(f); ok {
			continue
		}
		h := &handle{f: f}
		e.funcs = append(e.funcs, f)
		e.index.Store(f, h)
	}
}

// lookup resolves a function to its handle without taking any lock.
func (e *Engine) lookup(f *ir.Func) *handle {
	v, ok := e.index.Load(f)
	if !ok {
		return nil
	}
	return v.(*handle)
}

// Funcs returns the registered functions in registration order.
func (e *Engine) Funcs() []*ir.Func {
	e.regMu.Lock()
	defer e.regMu.Unlock()
	out := make([]*ir.Func, len(e.funcs))
	copy(out, e.funcs)
	return out
}

// Precompute analyzes every registered function that is not already
// resident, spreading the work over the worker pool. The result is
// deterministic regardless of parallelism: each function's analysis
// depends only on that function, and the returned error is the first
// failure in registration order (nil if all succeed). The one
// scheduling-dependent artifact is which analyses remain resident when
// MaxCached is smaller than the program — LRU order follows completion
// order — but evicted analyses rebuild on demand to identical answers.
// With a snapshot store every build tries a fingerprint-keyed load first,
// so these workers are also the engine's warm-start fan-out. Precompute
// returns once every function has been built or has failed.
func (e *Engine) Precompute() error {
	funcs := e.Funcs()
	workers := e.config.workers()
	if workers > len(funcs) {
		workers = len(funcs)
	}
	if workers < 1 {
		workers = 1
	}
	errs := make([]error, len(funcs))
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(funcs) {
					return
				}
				_, errs[i] = e.Liveness(funcs[i])
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("fastliveness: engine precompute %s: %w", funcs[i].Name, err)
		}
	}
	return nil
}

// Liveness returns the analysis for a registered function, building it on
// demand (and transparently rebuilding after eviction or after an edit
// made the resident analysis stale for the configured backend — see the
// Engine invalidation contract). Concurrent calls for the same function
// share one build: the first caller runs it on its own goroutine and the
// rest wait for it. The returned Liveness stays valid even if the engine
// later evicts it, and like every Liveness it is safe for concurrent
// queries.
//
// Errors wrap the package sentinels: ErrUnknownFunc for a function never
// registered with Add, ErrEngineClosed after Close, and ErrQuarantined
// (carrying a *BuildPanicError with the captured stack) for a function
// whose build panicked and is quarantined until its next edit.
func (e *Engine) Liveness(f *ir.Func) (*Liveness, error) {
	h := e.lookup(f)
	if h == nil {
		return nil, errUnknownFunc(f.Name)
	}
	return e.liveness(h)
}

// liveness is Liveness after handle resolution.
func (e *Engine) liveness(h *handle) (*Liveness, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		if e.closed.Load() {
			return nil, fmt.Errorf("fastliveness: %w", ErrEngineClosed)
		}
		// A recorded failure describes the function as of the record's
		// epochs; once it is edited again, retry instead of reporting a
		// verdict about a program that no longer exists.
		e.resetState(h, false)
		switch {
		case h.st.err != nil:
			var bp *BuildPanicError
			if errors.As(h.st.err, &bp) {
				// Quarantined: fail fast while the retry budget is spent
				// or the backoff has not elapsed; otherwise clear the
				// sticky error (keeping the panic count) and retry.
				if h.st.panics > e.buildRetries || time.Now().Before(h.st.retryAt) {
					return nil, quarantineErr(h.f.Name, h.st.err)
				}
				h.st.err = nil
				continue
			}
			return nil, h.st.err
		case h.live != nil:
			if h.live.Stale() {
				// An edit invalidated the resident analysis for this
				// backend's invalidation class: drop it and rebuild.
				// In-flight builds from before the drop are discarded via
				// the generation counter, exactly like Invalidate.
				e.drop(h)
				e.met.rebuilds.Inc()
				continue
			}
			e.lru.MoveToFront(h.elem)
			return h.live, nil
		case !h.building:
			return e.startBuild(h)
		}
		e.cond.Wait()
	}
}

// drop removes h's cached analysis (if resident) and bumps its generation
// so in-flight builds from before the drop are discarded instead of
// cached. Called with the engine mutex held. Used by staleness rebuilds,
// Invalidate, and LRU eviction.
func (e *Engine) drop(h *handle) {
	h.gen++
	if h.elem != nil {
		e.lru.Remove(h.elem)
		e.resident.Add(-1)
	}
	h.live, h.elem = nil, nil
}

// startBuild analyzes h.f (which is neither resident nor building) on
// the calling goroutine and publishes the result. Called — and returns —
// with the engine mutex held. It brings h's state record up to date,
// claims the build by setting building (so concurrent requesters wait
// instead of duplicating it), captures the generation, and runs the build
// with the engine unlocked. It then relocks, releases the claim, wakes
// waiters and caches the result only if the generation survived:
// Invalidate bumps it, and a superseded result describes a CFG that may
// no longer exist, so it is handed to this caller (whose view predates
// the invalidation) but not cached.
func (e *Engine) startBuild(h *handle) (*Liveness, error) {
	e.resetState(h, false)
	h.building = true
	gen := h.gen
	e.mu.Unlock()
	live, err := e.runBuild(h)
	e.mu.Lock()
	h.building = false
	e.cond.Broadcast()
	switch {
	case h.gen != gen: // superseded: returned, not cached
	case err != nil:
		e.recordFailure(h, err)
	default:
		e.publish(h, live)
	}
	// Wrap panic-derived errors so errors.Is(err, ErrQuarantined) holds
	// from the very first failing call, not only for the fail-fast ones.
	var bp *BuildPanicError
	if errors.As(err, &bp) {
		err = quarantineErr(h.f.Name, err)
	}
	return live, err
}

// runBuild executes the analysis for h outside the engine mutex, converting
// a backend panic into a *BuildPanicError instead of letting it unwind
// into the requesting goroutine — this is the recover boundary of the
// engine's failure model. The IR walk runs
// under the function's read lock so it cannot race an Edit; the unlock is
// deferred after the recover, so it still runs when the analysis panics.
func (e *Engine) runBuild(h *handle) (live *Liveness, err error) {
	start := time.Now()
	e.tracer.BuildStart(h.f.Name)
	defer func() {
		if r := recover(); r != nil {
			live, err = nil, &BuildPanicError{Func: h.f.Name, Value: r, Stack: debug.Stack()}
		}
		d := time.Since(start)
		e.met.builds.Inc()
		e.met.buildNs.Observe(d.Nanoseconds())
		e.tracer.BuildEnd(h.f.Name, d, err)
	}()
	h.irMu.RLock()
	defer h.irMu.RUnlock()
	return e.analyze(h)
}

// publish caches a successful build — the one place an analysis enters
// the LRU — at the LRU's front, so enforcing the cache bound never evicts
// it. Called with the engine mutex held.
func (e *Engine) publish(h *handle, live *Liveness) {
	h.live = live
	e.clearQuarantine(h)
	h.elem = e.lru.PushFront(h)
	e.resident.Add(1)
	e.enforceCacheBound()
}

// recordFailure notes a failed build in h's state record under the engine
// mutex, with quarantine pacing when it was a panic.
func (e *Engine) recordFailure(h *handle, err error) {
	h.st.err = err
	var bp *BuildPanicError
	if !errors.As(err, &bp) {
		return
	}
	h.st.panics++
	if h.st.panics == 1 {
		e.met.quarantined.Add(1)
		e.tracer.QuarantineEnter(h.f.Name)
	}
	if h.st.backoff == nil {
		h.st.backoff = retry.NewBackoff(quarantineBackoffBase, quarantineBackoffCap, 0)
	}
	h.st.retryAt = time.Now().Add(h.st.backoff.Next())
}

// clearQuarantine resets h's panic-retry state after a successful build
// or a state reset. Called with the engine mutex held.
func (e *Engine) clearQuarantine(h *handle) {
	if h.st.panics > 0 {
		e.met.quarantined.Add(-1)
		e.tracer.QuarantineClear(h.f.Name)
	}
	h.st.panics, h.st.retryAt = 0, time.Time{}
	if h.st.backoff != nil {
		h.st.backoff.Reset()
	}
}

// resetState clears h's state record and restamps it with the function's
// current epochs — when those epochs moved past the record's stamp, or
// unconditionally with force (Invalidate). Called with the engine mutex
// held. While a build is in flight it clears the quarantine half alone:
// the builder owns verified until it lands (if the epochs moved, the
// first reset after that clears it too).
func (e *Engine) resetState(h *handle, force bool) {
	if !force && h.stateCurrent() {
		return
	}
	e.clearQuarantine(h)
	if !h.building {
		h.st = buildState{at: backend.EpochsOf(h.f), backoff: h.st.backoff}
	}
}

// stateCurrent reports whether h's state record describes the function's
// IR as it is now. Builders call it under the function's read lock, where
// an Edit cannot move the epochs under them.
func (h *handle) stateCurrent() bool {
	return h.st.at == backend.EpochsOf(h.f)
}

// enforceCacheBound evicts from the LRU tail while more than MaxCached
// analyses are resident, so the victims are the least recently used
// functions engine-wide. Called with the engine mutex held.
func (e *Engine) enforceCacheBound() {
	max := e.config.MaxCached
	if max <= 0 {
		return
	}
	for e.lru.Len() > max {
		e.drop(e.lru.Back().Value.(*handle))
	}
}

// Invalidate eagerly drops any cached analysis for f and resets its build
// state as an edit would: a recorded error or quarantine is cleared, and
// the next build re-verifies. Since the engine detects stale analyses
// from the function's edit epochs and rebuilds on its own, Invalidate is
// never required for correctness — it releases memory for a function that
// will not be queried again soon, or retries a failed build at once.
// Analyses already handed out keep answering against the old program.
func (e *Engine) Invalidate(f *ir.Func) {
	h := e.lookup(f)
	if h == nil {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.drop(h)
	e.resetState(h, true)
}

// Edit runs edit — a mutation of f — under f's write lock, excluding
// concurrent builds, batches and Oracle queries on f for its duration.
// This is the sanctioned way to mutate a registered function while other
// goroutines are using the engine; a single-goroutine owner that also
// issues all the queries (a pass pipeline) may instead edit the IR
// directly, as the ir package contract always allowed. Either way the
// next request finds a stale analysis from the edit epochs and rebuilds
// it.
//
// edit must not call back into the engine for f (the lock is not
// reentrant); engine calls for other functions are fine. If f is not
// registered, edit runs with no locking.
func (e *Engine) Edit(f *ir.Func, edit func()) {
	h := e.lookup(f)
	if h == nil {
		edit()
		return
	}
	h.irMu.Lock()
	defer h.irMu.Unlock()
	edit()
}

// Close stops the engine for good: every later analysis, Oracle or batch
// request fails fast with an error wrapping ErrEngineClosed, callers
// parked on an in-flight build wake and fail the same way, and a traced
// engine detaches its breaker observer from the (possibly shared)
// snapshot store. Snapshot write-backs run inline in the build that
// produced them, so there is nothing left to flush. Close is idempotent.
// Analyses and Oracles already handed out keep answering — they own their
// precomputed sets and never call back into the engine until a staleness
// re-fetch. Metrics and WriteMetrics keep working.
func (e *Engine) Close() {
	if e.closed.Swap(true) {
		return
	}
	if e.unobserve != nil {
		e.unobserve()
	}
	e.mu.Lock()
	e.cond.Broadcast()
	e.mu.Unlock()
}

// Resident reports how many per-function analyses are currently cached.
func (e *Engine) Resident() int {
	return int(e.resident.Load())
}

// Rebuilds reports how many re-analyses stale results have forced on the
// query path so far — first builds and refills after LRU eviction or
// explicit Invalidate do not count. This is the measurable form of the
// paper's asymmetry: over an instruction-editing pipeline (destruction,
// the spill loop) a checker-backed engine reports 0 while set-producing
// backends pay one
// rebuild per edit-then-query; cmd/benchtables -table pipeline records
// exactly this per backend. It is Metrics().Rebuilds, kept for callers
// that want the one number.
func (e *Engine) Rebuilds() int { return int(e.met.rebuilds.Load()) }

// MemoryBytes reports the total footprint of the resident precomputed
// sets (§6.1).
func (e *Engine) MemoryBytes() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	total := 0
	for el := e.lru.Front(); el != nil; el = el.Next() {
		total += el.Value.(*handle).live.MemoryBytes()
	}
	return total
}

// batchParallelThreshold is the batch size below which sharding the batch
// over goroutines costs more than it saves.
const batchParallelThreshold = 256

// BatchIsLiveIn answers queries[i] = IsLiveIn(V, B) for every query, all
// against function f. One analysis lookup and one query handle serve the
// whole batch (large batches are sharded over the worker pool, whose
// goroutines share the handle), so the per-query overhead of the
// one-at-a-time API is paid once. Answers are positionally identical to
// calling Liveness.IsLiveIn per query. The batch runs under the
// function's read lock and re-fetches if an Edit lands between the
// analysis lookup and the batch execution, so it never answers from an
// analysis an edit has invalidated.
func (e *Engine) BatchIsLiveIn(f *ir.Func, queries []Query) ([]bool, error) {
	return e.batch(f, queries, (*Liveness).IsLiveIn)
}

// BatchIsLiveOut is BatchIsLiveIn for live-out queries.
func (e *Engine) BatchIsLiveOut(f *ir.Func, queries []Query) ([]bool, error) {
	return e.batch(f, queries, (*Liveness).IsLiveOut)
}

func (e *Engine) batch(f *ir.Func, queries []Query, ask func(*Liveness, *ir.Value, *ir.Block) bool) ([]bool, error) {
	h := e.lookup(f)
	if h == nil {
		return nil, errUnknownFunc(f.Name)
	}
	for {
		live, err := e.liveness(h)
		if err != nil {
			return nil, err
		}
		// Execute under the function's read lock: Edits are excluded for
		// the duration of the batch. If an edit slipped in between the
		// lookup above and the lock, the analysis reads as stale here and
		// the batch re-fetches — a fresh result or a transparent
		// on-demand build, never a stale answer.
		h.irMu.RLock()
		if live.Stale() {
			h.irMu.RUnlock()
			continue
		}
		start := time.Now()
		out := e.runBatch(live, queries, ask)
		h.irMu.RUnlock()
		d := time.Since(start)
		e.met.batches.Inc()
		e.met.queries.Add(int64(len(queries)))
		e.met.batchNs.Observe(d.Nanoseconds())
		e.tracer.QueryBatch(f.Name, len(queries), d)
		return out, nil
	}
}

// runBatch executes the queries against one (fresh) analysis, sharding
// large batches over the worker pool. The caller holds the function's
// read lock; the fan-out goroutines run under it too — RLock is shared,
// and they share live, which is safe for concurrent queries.
func (e *Engine) runBatch(live *Liveness, queries []Query, ask func(*Liveness, *ir.Value, *ir.Block) bool) []bool {
	out := make([]bool, len(queries))
	workers := e.config.workers()
	if len(queries) < batchParallelThreshold || workers < 2 {
		for i, q := range queries {
			out[i] = ask(live, q.V, q.B)
		}
		return out
	}
	// Shard into contiguous ranges; each shard writes disjoint indices, so
	// the result is order-independent.
	if workers > len(queries) {
		workers = len(queries)
	}
	per := (len(queries) + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < len(queries); lo += per {
		hi := lo + per
		if hi > len(queries) {
			hi = len(queries)
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				out[i] = ask(live, queries[i].V, queries[i].B)
			}
		}(lo, hi)
	}
	wg.Wait()
	return out
}

// Oracle is an auto-refreshing query handle bound to one registered
// function: every query checks the epochs its current analysis was
// computed at (an atomic comparison, under the function's read lock) and
// transparently re-fetches through the engine (which rebuilds stale analyses) when an
// edit invalidated it. It satisfies the liveness-oracle shapes of
// internal/regalloc and internal/destruct, so editing passes run against
// any backend with no manual refresh hooks — rebuild policy lives in the
// epochs, not at the call sites.
//
// An Oracle swaps in the re-fetched analysis in place, so it is
// single-goroutine: create one per goroutine (they share the engine's
// analysis). Each query executes under the function's read lock, so
// oracle queries are safe against concurrent Engine.Edit calls on the
// same function.
type Oracle struct {
	e    *Engine
	h    *handle
	f    *ir.Func
	live *Liveness
}

// Oracle returns an auto-refreshing query handle for a registered
// function, analyzing it first if needed (with Liveness's errors). It is
// the one self-refreshing
// oracle for passes that edit while they query: EngineConfig.Config.Backend
// picks the backend (a one-function engine suffices), and Rebuilds counts
// the re-analyses the edits forced — zero under the checker for
// instruction-only edits.
func (e *Engine) Oracle(f *ir.Func) (*Oracle, error) {
	h := e.lookup(f)
	if h == nil {
		return nil, errUnknownFunc(f.Name)
	}
	live, err := e.liveness(h)
	if err != nil {
		return nil, err
	}
	return &Oracle{e: e, h: h, f: f, live: live}, nil
}

// query answers one question under the function's read lock, re-fetching
// through the engine until the analysis it holds is fresh at the moment
// the lock is held. The common case (no intervening edit) is one
// uncontended RLock and one staleness check.
//
// The re-fetch runs without the read lock (the build path read-locks
// around its own IR walk). Re-analysis can fail — an edit broke the
// function structurally, or left a block unreachable from the entry — and
// the query methods have no error channel, so the oracle fails closed with
// a panic rather than answering from a dead analysis. Callers whose edits
// may do that must re-request oracles through Engine.Oracle, where the
// error is returnable.
func (o *Oracle) query(ask func(*Liveness) bool) bool {
	for {
		o.h.irMu.RLock()
		if !o.live.Stale() {
			v := ask(o.live)
			o.h.irMu.RUnlock()
			// One atomic add is the entire per-query instrumentation cost:
			// per-query timing would double the hot path's latency for a
			// distribution the batch/build histograms and the bench latency
			// table already capture.
			o.e.met.queries.Inc()
			return v
		}
		o.h.irMu.RUnlock()
		live, err := o.e.liveness(o.h)
		if err != nil {
			panic(fmt.Sprintf("fastliveness: oracle re-analysis of %s after edit: %v", o.f.Name, err))
		}
		o.live = live
	}
}

// IsLiveIn answers against the current program, re-analyzing first if an
// edit made the held analysis stale.
func (o *Oracle) IsLiveIn(v *ir.Value, b *ir.Block) bool {
	return o.query(func(l *Liveness) bool { return l.IsLiveIn(v, b) })
}

// IsLiveOut is IsLiveIn for live-out queries.
func (o *Oracle) IsLiveOut(v *ir.Value, b *ir.Block) bool {
	return o.query(func(l *Liveness) bool { return l.IsLiveOut(v, b) })
}

// Interfere is the Budimlić interference test against the current program.
func (o *Oracle) Interfere(x, y *ir.Value) bool {
	return o.query(func(l *Liveness) bool { return l.Interfere(x, y) })
}
