// Background rebuild pool: editing passes (or an explicit MarkDirty)
// enqueue stale functions, and a small set of worker goroutines
// re-analyzes them ahead of the next query, so edit-heavy workloads pay
// re-analysis off the query hot path.
//
// Lifecycle of a dirty function:
//
//	Edit/MarkDirty ──► queued (deduplicated per handle)
//	       │
//	       ▼
//	worker dequeues ──► skipped if: evicted while queued, already
//	       │            building, or no longer stale (a query got there
//	       │            first) — the "no resurrection after eviction"
//	       ▼            guard is the h.live == nil check plus the
//	drop + Analyze      generation bump eviction performs.
//	       │
//	       ▼
//	publish if the generation is unchanged and the result is still
//	fresh; otherwise discard (a query that raced the rebuild either
//	waited on the shared build or builds on demand — never a stale
//	answer).
//
// The pool shares the engine's single-flight machinery: a worker build
// sets handle.building, so a query that arrives mid-rebuild waits on the
// shard's condition variable and is handed the worker's result.

package fastliveness

import (
	"sync"

	"fastliveness/internal/ir"
)

// rebuildPool runs EngineConfig.RebuildWorkers goroutines over two
// queues in strict priority order: a deduplicated queue of dirty handles
// (rebuilds keep queries fast now), then snapshot write-back jobs
// (engine.saveSnapshot — they only help future processes).
type rebuildPool struct {
	e *Engine

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*handle
	saves  []func()
	closed bool

	wg sync.WaitGroup
}

func newRebuildPool(e *Engine, workers int) *rebuildPool {
	p := &rebuildPool{e: e}
	p.cond = sync.NewCond(&p.mu)
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

func (p *rebuildPool) worker() {
	defer p.wg.Done()
	for {
		h, save, ok := p.next()
		switch {
		case !ok:
			return
		case h != nil:
			p.e.rebuildOne(h)
		default:
			save()
		}
	}
}

// next blocks until work is queued or the pool is closed, handing out
// rebuilds before saves.
func (p *rebuildPool) next() (h *handle, save func(), ok bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.queue) == 0 && len(p.saves) == 0 && !p.closed {
		p.cond.Wait()
	}
	if p.closed {
		return nil, nil, false
	}
	if len(p.queue) > 0 {
		h := p.queue[0]
		p.queue = p.queue[1:]
		p.e.met.queueDepth.Add(-1)
		return h, nil, true
	}
	save = p.saves[0]
	p.saves = p.saves[1:]
	return nil, save, true
}

// enqueueSave adds a snapshot write-back job. On a closed pool the job
// runs inline instead of being dropped: unlike a discarded rebuild (which
// the next query transparently redoes), a dropped save would silently lose
// the warm start the caller already paid the precompute for.
func (p *rebuildPool) enqueueSave(save func()) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		save()
		return
	}
	p.saves = append(p.saves, save)
	p.mu.Unlock()
	p.cond.Signal()
}

// enqueue adds h to the work queue. The caller has already set h.queued
// under the shard mutex; if the pool is closed the flag is rolled back so
// the handle is not stuck looking queued forever.
func (p *rebuildPool) enqueue(h *handle) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		h.shard.mu.Lock()
		h.queued = false
		h.shard.mu.Unlock()
		return
	}
	p.queue = append(p.queue, h)
	p.e.met.queueDepth.Add(1)
	p.e.met.rebuildEnqueues.Inc()
	p.mu.Unlock()
	p.cond.Signal()
	p.e.tracer.RebuildEnqueue(h.f.Name)
}

// close stops the workers and waits for them to exit. Pending rebuild
// entries are discarded — an un-rebuilt dirty function is simply rebuilt
// on demand by its next query — but pending snapshot saves are drained
// to disk, so an engine that was Closed has flushed every write-back it
// scheduled (the property the warm-start story rests on: process one
// Closes, process two hits).
func (p *rebuildPool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	pending := p.queue
	p.queue = nil
	p.e.met.queueDepth.Add(-int64(len(pending)))
	saves := p.saves
	p.saves = nil
	p.mu.Unlock()
	p.cond.Broadcast()
	p.wg.Wait()
	for _, h := range pending {
		h.shard.mu.Lock()
		h.queued = false
		h.shard.mu.Unlock()
		p.e.discardRebuild(h)
	}
	for _, save := range saves {
		save()
	}
}

// rebuildOne re-analyzes one dequeued handle if it still needs it. The
// decision runs under the shard mutex; the Analyze itself runs through
// flight, sharing the single-flight path with queries, and under the
// function's read lock, so it cannot race an Edit.
func (e *Engine) rebuildOne(h *handle) {
	s := h.shard
	s.mu.Lock()
	defer s.mu.Unlock()
	h.queued = false
	if h.building || h.live == nil || !h.live.Stale() {
		// Already being built (a query got there first and the result
		// will be fresh), evicted or invalidated while queued (must not
		// be resurrected into the cache), or no longer stale (a query
		// already rebuilt it). All are no-ops — but the evicted case is a
		// discard (queued work thrown away), not work done elsewhere.
		if !h.building && h.live == nil {
			e.discardRebuild(h)
		}
		return
	}
	e.drop(h)
	// runBuild recovers backend panics into a *BuildPanicError, so a
	// panicking analysis quarantines its function (via recordFailure
	// below) instead of killing this pool worker.
	var live *Liveness
	var err error
	e.flight(h, false, func() { live, err = e.runBuild(h) }, func(current bool) {
		switch {
		case !current:
			// Superseded while building (Invalidate, or an eviction of a
			// racing publisher bumped the generation). Queries that waited
			// on this build find live == nil and build on demand.
			e.discardRebuild(h)
		case err != nil:
			e.recordFailure(h, err)
		case live.Stale():
			// Another edit landed mid-build; the result is already dead.
			// Leave the slot empty — the next query (or MarkDirty) rebuilds
			// against the newer program.
			e.discardRebuild(h)
		case e.publish(h, live): // not self-evicted by the bound
			e.met.backgroundRebuilds.Inc()
		}
	})
}

// discardRebuild counts and traces one queued or in-flight rebuild thrown
// away.
func (e *Engine) discardRebuild(h *handle) {
	e.met.rebuildDiscards.Inc()
	e.tracer.RebuildDiscard(h.f.Name)
}

// MarkDirty tells the engine f may have been edited. With a rebuild pool
// configured, a resident analysis that the function's current epochs
// invalidate is enqueued for background re-analysis, so the next query
// finds it fresh instead of paying the rebuild inline. Without a pool —
// and for an unregistered, evicted, still-fresh, already-queued or
// already-building function — MarkDirty is a cheap safe no-op: staleness
// is detected from the epochs on the query path regardless, so MarkDirty
// is always an optimization hint, never required for correctness.
func (e *Engine) MarkDirty(f *ir.Func) {
	if e.pool == nil {
		return
	}
	h := e.lookup(f)
	if h == nil {
		return
	}
	s := h.shard
	s.mu.Lock()
	if h.live == nil || h.queued || h.building || !h.live.Stale() {
		s.mu.Unlock()
		return
	}
	h.queued = true
	s.mu.Unlock()
	e.pool.enqueue(h)
}

// Edit runs edit — a mutation of f — under f's write lock, excluding the
// background rebuild workers (and any concurrent batch or Oracle query on
// f) for its duration, then marks f dirty so the pool re-analyzes it
// ahead of the next query. This is the sanctioned way to mutate a
// registered function while other goroutines are using the engine; a
// single-goroutine owner that also issues all the queries (a pass
// pipeline) may instead edit the IR directly, as the ir package contract
// always allowed.
//
// edit must not call back into the engine for f (the lock is not
// reentrant); engine calls for other functions are fine. If f is not
// registered, edit runs with no locking and no dirty mark.
func (e *Engine) Edit(f *ir.Func, edit func()) {
	h := e.lookup(f)
	if h == nil {
		edit()
		return
	}
	h.irMu.Lock()
	edit()
	h.irMu.Unlock()
	e.MarkDirty(f)
}

// Close stops the background rebuild workers, if any, and waits for
// in-flight rebuilds to finish. The engine stays fully usable afterwards
// — stale analyses are simply rebuilt on the query path again, and
// MarkDirty reverts to a no-op. Close is idempotent and a no-op for
// engines without workers.
func (e *Engine) Close() {
	if e.pool != nil {
		e.pool.close()
	}
}

// Shutdown is the terminal form of Close: it stops the background workers
// (draining pending snapshot saves, like Close) and then marks the engine
// closed, so every subsequent analysis or query request fails fast with
// an error wrapping ErrEngineClosed. Use Close to pause background work
// on an engine that keeps serving; use Shutdown when the engine is done
// for good and late callers should get an error instead of fresh builds.
// Shutdown is idempotent. Analyses and oracles already handed out keep
// answering — they own their precomputed sets and never call back into
// the engine until a staleness re-fetch.
func (e *Engine) Shutdown() {
	if e.closed.Swap(true) {
		return
	}
	e.Close()
	if e.unobserve != nil {
		e.unobserve() // detach from the (possibly shared) snapshot store
	}
	// Wake any waiters parked on in-flight builds so they observe the
	// closed flag instead of sleeping until the build publishes.
	for _, s := range e.shards {
		s.mu.Lock()
		s.cond.Broadcast()
		s.mu.Unlock()
	}
}
