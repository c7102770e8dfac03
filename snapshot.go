// Persistent snapshot tier: the disk layer under the engine's LRU.
//
// The checker's R/T precomputation depends only on CFG structure (§4), so
// it is cacheable across processes keyed by a structural fingerprint of
// the CFG — yesterday's precomputations answer today's queries as long as
// the control flow is unchanged, no matter how many instructions were
// edited in between. SnapshotStore wires internal/snapshot into the
// engine: on an analysis miss (first build, eviction refill, CFG-edit
// rebuild) the engine first tries a fingerprint-matched load from disk and
// only falls back to the full precompute when none validates; successful
// computes are written back inline by the build that produced them.
package fastliveness

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"fastliveness/internal/backend"
	"fastliveness/internal/core"
	"fastliveness/internal/ir"
	"fastliveness/internal/retry"
	"fastliveness/internal/snapshot"
)

// Save-retry pacing for transient snapshot write failures (a full /tmp,
// a hiccuping network filesystem): how many extra attempts a failed save
// gets by default, and the backoff bounds between them.
const (
	defaultSaveRetries = 2
	saveBackoffBase    = time.Millisecond
	saveBackoffCap     = 50 * time.Millisecond
)

// errSnapshotBreakerOpen marks a load or save skipped because the store's
// circuit breaker is open: the disk tier is degraded and builds fall
// through to recomputation. Deliberately unexported — callers observe the
// degradation through SnapshotStats.BreakerSkips, not error plumbing.
var errSnapshotBreakerOpen = errors.New("snapshot store circuit breaker is open")

// SnapshotStore is a handle on an on-disk snapshot directory, shareable
// between engines and processes. Open one with OpenSnapshotStore (or
// OpenSnapshotStoreOptions to tune the failure handling) and set it as
// EngineConfig.SnapshotStore.
//
// All of the store's I/O sits behind a circuit breaker: a run of
// consecutive load/save errors — or loads slower than the configured
// latency ceiling — opens it, after which builds skip the disk entirely
// and recompute from IR (counted in SnapshotStats.BreakerSkips). After a
// cooldown the next load runs as a half-open probe; its success closes
// the breaker again. Cache misses (no snapshot for the fingerprint) are
// normal operation, never breaker failures. Transient save errors are
// additionally retried a few times with jittered backoff before giving
// up, since a lost save silently costs a future process its warm start.
type SnapshotStore struct {
	store       *snapshot.Store
	breaker     *retry.Breaker
	saveRetries int

	// Breaker-transition fan-out: the breaker's OnTransition bumps the
	// store-global counter and forwards to every registered observer
	// (engines forwarding to their tracers — see NewEngine). The observer
	// list is copy-on-write under obsMu so the breaker callback never
	// holds a lock while calling out.
	transitions atomic.Int64
	obsMu       sync.Mutex
	obs         atomic.Pointer[[]breakerObserver]
	nextObsID   int
}

// breakerObserver is one registered transition callback with the identity
// its unregister function removes it by.
type breakerObserver struct {
	id int
	fn func(from, to retry.State)
}

// SnapshotStoreOptions tunes OpenSnapshotStoreOptions. The zero value
// matches OpenSnapshotStore: unbounded directory, breaker opening after
// 4 consecutive failures with a one-second cooldown and no latency
// ceiling, and 2 save retries.
type SnapshotStoreOptions struct {
	// MaxBytes bounds the directory's total size — least recently used
	// snapshots are deleted when a save overflows it; <= 0 means unbounded.
	MaxBytes int64
	// BreakerFailures is how many consecutive I/O failures open the
	// breaker. 0 means 4.
	BreakerFailures int
	// BreakerLatency, when positive, is the per-operation ceiling: an
	// operation slower than this counts as a failure even when it
	// succeeds. 0 disables the ceiling.
	BreakerLatency time.Duration
	// BreakerCooldown is how long an open breaker waits before admitting
	// a half-open probe load. 0 means one second.
	BreakerCooldown time.Duration
	// SaveRetries is how many extra backoff-paced attempts a transiently
	// failing save gets. 0 means 2; negative disables retries.
	SaveRetries int
	// VerifyArenas opts mmap-backed loads into eager checksum scans of
	// the R/T arena sections (the banded R and the CSR T arena). By
	// default the aliasing load path verifies the header and the
	// structural sections and defers the arena scans — the sub-linear
	// warm-start trade, in which an on-disk bit flip inside R, or one
	// that leaves T well formed, would go undetected until a copying
	// load touches it. Set this to pay a linear pass per file-backed load
	// for eager end-to-end integrity instead.
	VerifyArenas bool
}

func (o SnapshotStoreOptions) saveRetries() int {
	switch {
	case o.SaveRetries > 0:
		return o.SaveRetries
	case o.SaveRetries < 0:
		return 0
	}
	return defaultSaveRetries
}

// OpenSnapshotStore opens (creating if necessary) a snapshot directory.
// maxBytes bounds the directory's total size — least recently used
// snapshots are deleted when a save overflows it; <= 0 means unbounded.
// Failure handling uses the defaults; see OpenSnapshotStoreOptions.
func OpenSnapshotStore(dir string, maxBytes int64) (*SnapshotStore, error) {
	return OpenSnapshotStoreOptions(dir, SnapshotStoreOptions{MaxBytes: maxBytes})
}

// OpenSnapshotStoreOptions is OpenSnapshotStore with the failure-model
// knobs exposed.
func OpenSnapshotStoreOptions(dir string, opts SnapshotStoreOptions) (*SnapshotStore, error) {
	st, err := snapshot.Open(dir, opts.MaxBytes)
	if err != nil {
		return nil, err
	}
	st.SetVerifyArenas(opts.VerifyArenas)
	ss := &SnapshotStore{store: st, saveRetries: opts.saveRetries()}
	ss.breaker = retry.NewBreaker(retry.BreakerConfig{
		Failures:     opts.BreakerFailures,
		Latency:      opts.BreakerLatency,
		Cooldown:     opts.BreakerCooldown,
		OnTransition: ss.onBreakerTransition,
	})
	return ss, nil
}

// onBreakerTransition is the breaker's OnTransition hook: count the state
// change and fan it out to the registered observers. Runs outside the
// breaker lock, on the goroutine whose load/save caused the transition.
func (s *SnapshotStore) onBreakerTransition(from, to retry.State) {
	s.transitions.Add(1)
	if obs := s.obs.Load(); obs != nil {
		for _, o := range *obs {
			o.fn(from, to)
		}
	}
}

// observeBreaker registers fn to be called on every breaker state change
// and returns its unregister function. Engines call this at construction
// to forward transitions to their tracer and unregister at Close; the
// store may outlive (and be shared by) any number of engines.
func (s *SnapshotStore) observeBreaker(fn func(from, to retry.State)) (unregister func()) {
	s.obsMu.Lock()
	id := s.nextObsID
	s.nextObsID++
	var next []breakerObserver
	if cur := s.obs.Load(); cur != nil {
		next = append(next, *cur...)
	}
	next = append(next, breakerObserver{id: id, fn: fn})
	s.obs.Store(&next)
	s.obsMu.Unlock()
	return func() {
		s.obsMu.Lock()
		defer s.obsMu.Unlock()
		cur := s.obs.Load()
		if cur == nil {
			return
		}
		kept := make([]breakerObserver, 0, len(*cur))
		for _, o := range *cur {
			if o.id != id {
				kept = append(kept, o)
			}
		}
		s.obs.Store(&kept)
	}
}

// BreakerTransitions reports how many state changes the store's circuit
// breaker has made — store-global, like the breaker itself: engines
// sharing one store observe a shared count.
func (s *SnapshotStore) BreakerTransitions() int64 { return s.transitions.Load() }

// BreakerState reports the store's circuit-breaker position ("closed",
// "open" or "half-open") for logs and stats.
func (s *SnapshotStore) BreakerState() string { return s.breaker.State().String() }

// load is Store.Load behind the breaker. An open breaker skips the disk
// entirely and returns errSnapshotBreakerOpen; cache misses (ErrNotFound)
// pass through as ordinary misses without counting against the breaker.
func (s *SnapshotStore) load(fp uint64) (*snapshot.Snapshot, error) {
	if !s.breaker.Allow() {
		return nil, errSnapshotBreakerOpen
	}
	start := time.Now()
	snap, err := s.store.Load(fp)
	failed := err != nil && !errors.Is(err, snapshot.ErrNotFound)
	s.breaker.Record(time.Since(start), failed)
	return snap, err
}

// save is Store.Save behind the breaker, with backoff-paced retries for
// transient errors. Saves never probe an open breaker — only loads do,
// because a probe that writes could not distinguish "disk recovered" from
// "write buffered to a dying disk" — so a non-closed breaker skips the
// save outright. Save outcomes feed the breaker's failure count only
// while it is closed, keeping them out of half-open probe accounting.
func (s *SnapshotStore) save(snap *snapshot.Snapshot) error {
	var bo *retry.Backoff
	for attempt := 0; ; attempt++ {
		if s.breaker.State() != retry.Closed {
			return errSnapshotBreakerOpen
		}
		start := time.Now()
		err := s.store.Save(snap)
		if s.breaker.State() == retry.Closed {
			s.breaker.Record(time.Since(start), err != nil)
		}
		if err == nil || attempt >= s.saveRetries {
			return err
		}
		if bo == nil {
			bo = retry.NewBackoff(saveBackoffBase, saveBackoffCap, 0)
		}
		time.Sleep(bo.Next())
	}
}

// Dir returns the store's directory.
func (s *SnapshotStore) Dir() string { return s.store.Dir() }

// SizeBytes returns the current total size of the store's snapshot files.
func (s *SnapshotStore) SizeBytes() int64 { return s.store.SizeBytes() }

// Len returns the number of snapshots in the store.
func (s *SnapshotStore) Len() int { return s.store.Len() }

// SnapshotStats counts the engine's traffic against its snapshot tier.
// Hits+Misses is the number of analysis builds that consulted the store;
// Computes counts full precomputes engine-wide (with or without a store),
// so a warm start over an unchanged corpus shows Computes == 0 —
// the measurable form of "the disk tier eliminated the precompute".
type SnapshotStats struct {
	// Hits counts builds served by a validated snapshot load.
	Hits int64
	// Misses counts builds that consulted the store and fell through to a
	// full precompute — no file for the fingerprint, or a file that failed
	// validation (corruption, version skew, a stale structural match).
	Misses int64
	// Stores counts snapshots written back to disk.
	Stores int64
	// Computes counts full precomputes run by this engine, snapshot tier
	// or not. First builds, eviction refills and CFG-edit rebuilds all
	// count; snapshot hits do not.
	Computes int64
	// LoadedBytes and StoredBytes total the snapshot file sizes read on
	// hits and written on stores.
	LoadedBytes int64
	StoredBytes int64
	// BreakerSkips counts builds that would have consulted the store but
	// found its circuit breaker open and recomputed from IR instead (each
	// also counts as a Miss). A nonzero value is the measurable form of
	// "the disk tier degraded but answers stayed correct".
	BreakerSkips int64
	// DecodedCacheHits and DecodedCacheMisses split store loads by whether
	// the store's in-process decoded cache absorbed them without touching
	// the file; SectionScans and SectionSkips count the format's
	// per-section checksum scans run and avoided (a cached hit skips all
	// of them, the aliasing mmap path defers the two arena sections,
	// an early validation failure skips the sections never reached).
	// Store-global, like the breaker: engines sharing one SnapshotStore see
	// shared counts. All zero without a store.
	DecodedCacheHits   int64
	DecodedCacheMisses int64
	SectionScans       int64
	SectionSkips       int64
}

// snapshotCounters is the atomic-counter block behind SnapshotStats,
// embedded in Engine.
type snapshotCounters struct {
	snapHits         atomic.Int64
	snapMisses       atomic.Int64
	snapStores       atomic.Int64
	computes         atomic.Int64
	snapLoadedBytes  atomic.Int64
	snapStoredBytes  atomic.Int64
	snapBreakerSkips atomic.Int64
}

// SnapshotStats reports the engine's snapshot-tier traffic so far. All
// counters are zero except Computes when no SnapshotStore is configured.
// Like Stats and Rebuilds, the values are invariant under the shard count.
func (e *Engine) SnapshotStats() SnapshotStats {
	st := SnapshotStats{
		Hits:         e.snap.snapHits.Load(),
		Misses:       e.snap.snapMisses.Load(),
		Stores:       e.snap.snapStores.Load(),
		Computes:     e.snap.computes.Load(),
		LoadedBytes:  e.snap.snapLoadedBytes.Load(),
		StoredBytes:  e.snap.snapStoredBytes.Load(),
		BreakerSkips: e.snap.snapBreakerSkips.Load(),
	}
	if ss := e.config.SnapshotStore; ss != nil {
		s := ss.store.Stats()
		st.DecodedCacheHits = s.DecodedCacheHits
		st.DecodedCacheMisses = s.DecodedCacheMisses
		st.SectionScans = s.SectionScans
		st.SectionSkips = s.SectionSkips
	}
	return st
}

// snapshotTier returns the store to consult for this engine's builds, or
// nil when there is none or the configured backend is not the checker —
// set-producing backends materialize per-instruction sets, which the
// CFG-keyed snapshot format deliberately cannot describe.
func (e *Engine) snapshotTier() *SnapshotStore {
	ss := e.config.SnapshotStore
	if ss == nil {
		return nil
	}
	switch e.config.Config.Backend {
	case "", backend.DefaultName:
		return ss
	}
	return nil
}

// analyze is the engine's single analysis chokepoint: every build — first
// touch, eviction refill, staleness rebuild — funnels through here, which
// is what makes the snapshot tier sit under the whole LRU rather than
// under one code path. Callers hold the function's read lock inside
// startBuild, which makes them the sole toucher of the state record's
// verified bit.
func (e *Engine) analyze(h *handle) (*Liveness, error) {
	if err := e.verify(h); err != nil {
		return nil, err
	}
	config := e.config.Config
	config.SkipVerify = true // verified above (or recorded earlier)
	st := e.snapshotTier()
	if st != nil {
		if live := e.loadSnapshot(st, h.f); live != nil {
			return live, nil
		}
	}
	e.snap.computes.Add(1)
	live, err := Analyze(h.f, config)
	if st != nil && err == nil {
		e.saveSnapshot(st, live)
	}
	return live, err
}

// verify runs ir.Verify on h's function unless Config.SkipVerify opts out
// or the state record shows it already passed for this IR. Verification
// is thereby epoch-tracked: it runs at most once per function per edit
// epoch, and every later build of the same IR — eviction refill or
// snapshot restore — reuses the recorded pass instead of
// re-walking every instruction. The first build after any edit still
// verifies, so the safety contract of direct Analyze is kept. Called by
// the in-flight builder under the function's read lock.
func (e *Engine) verify(h *handle) error {
	if e.config.Config.SkipVerify {
		return nil
	}
	current := h.stateCurrent()
	if h.st.verified && current {
		return nil
	}
	if err := ir.Verify(h.f); err != nil {
		return err
	}
	h.st.verified = current
	return nil
}

// loadSnapshot tries to serve f's analysis from the store, returning nil
// on a miss. Every failure — no file, torn or bit-flipped file, version
// skew, a fingerprint that collides but fails Restore's structural
// re-validation, an I/O error, an open circuit breaker — lands in the same
// place: count a miss (and a breaker skip for the last) and let the caller
// run the real precompute. The disk tier can therefore never produce a
// wrong answer, only a slower one.
//
// The warm path never builds a CFG: FingerprintFunc derives the key (and
// the block index) straight off the IR, and a validating
// RestoreFrom adopts the graph, DFS and dominator tree from the file.
func (e *Engine) loadSnapshot(ss *SnapshotStore, f *ir.Func) (live *Liveness) {
	start := time.Now()
	defer func() {
		d := time.Since(start)
		e.met.snapLoadNs.Observe(d.Nanoseconds())
		e.tracer.SnapshotLoad(f.Name, live != nil, d)
	}()
	opts := core.Options{Strategy: e.config.Config.Strategy}
	fp, index := snapshot.FingerprintFunc(f, snapshot.FlagsFor(opts))
	s, err := ss.load(fp)
	if err != nil {
		e.snap.snapMisses.Add(1)
		if errors.Is(err, errSnapshotBreakerOpen) {
			e.snap.snapBreakerSkips.Add(1)
		}
		return nil
	}
	cr, err := s.RestoreFrom(f, index, opts)
	if err != nil {
		e.snap.snapMisses.Add(1)
		return nil
	}
	e.snap.snapHits.Add(1)
	e.snap.snapLoadedBytes.Add(s.SizeBytes())
	return &Liveness{f: f, prep: cr.Prep(), res: cr}
}

// saveSnapshot writes back a freshly computed checker analysis, inline on
// the building goroutine, so every save is on disk when the build that
// scheduled it returns: single-shot tools and a process that Closes right
// after Precompute leave a warm store behind. Capture aliases the
// checker's write-once arenas and copies only the idom array. While the
// store's breaker is not closed the save is skipped before any work — no
// capture, no stat, no latency sample — since the store would refuse it
// anyway.
//
// Snapshots are keyed by fingerprint, not by function: a function with
// the same CFG shape as one already stored has nothing to write.
func (e *Engine) saveSnapshot(ss *SnapshotStore, live *Liveness) {
	cr, ok := live.res.(*backend.CheckerResult)
	if !ok || ss.breaker.State() != retry.Closed {
		return
	}
	snap, err := snapshot.Capture(cr.Prep(), cr.Checker())
	if err != nil || ss.store.Contains(snap.FP) {
		return
	}
	start := time.Now()
	err = ss.save(snap)
	d := time.Since(start)
	e.met.snapSaveNs.Observe(d.Nanoseconds())
	e.tracer.SnapshotSave(err == nil, d)
	if err == nil {
		e.snap.snapStores.Add(1)
		e.snap.snapStoredBytes.Add(snap.SizeBytes())
	}
}
