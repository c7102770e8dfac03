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
	"sync/atomic"
	"time"

	"fastliveness/internal/backend"
	"fastliveness/internal/core"
	"fastliveness/internal/ir"
	"fastliveness/internal/snapshot"
)

// SnapshotStore is a handle on an on-disk snapshot directory, shareable
// between engines and processes. Open one with OpenSnapshotStore (or
// OpenSnapshotStoreOptions for the arena-integrity opt-in) and set it as
// EngineConfig.SnapshotStore.
//
// The store is a cache, so its failures cost time, never answers: a load
// error of any kind (no file, a corrupt file, an I/O error) is a miss, and
// a failed save is dropped. A dropped save is written by the next cold
// build of the same fingerprint.
type SnapshotStore struct {
	store *snapshot.Store
}

// SnapshotStoreOptions tunes OpenSnapshotStoreOptions. The zero value
// matches OpenSnapshotStore with an unbounded directory.
type SnapshotStoreOptions struct {
	// MaxBytes bounds the directory's total size — least recently used
	// snapshots are deleted when a save overflows it; <= 0 means unbounded.
	MaxBytes int64
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

// OpenSnapshotStore opens (creating if necessary) a snapshot directory.
// maxBytes bounds the directory's total size — least recently used
// snapshots are deleted when a save overflows it; <= 0 means unbounded.
func OpenSnapshotStore(dir string, maxBytes int64) (*SnapshotStore, error) {
	return OpenSnapshotStoreOptions(dir, SnapshotStoreOptions{MaxBytes: maxBytes})
}

// OpenSnapshotStoreOptions is OpenSnapshotStore with the arena-integrity
// opt-in exposed.
func OpenSnapshotStoreOptions(dir string, opts SnapshotStoreOptions) (*SnapshotStore, error) {
	st, err := snapshot.Open(dir, opts.MaxBytes)
	if err != nil {
		return nil, err
	}
	st.SetVerifyArenas(opts.VerifyArenas)
	return &SnapshotStore{store: st}, nil
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
	// DecodedCacheHits and DecodedCacheMisses split store loads by whether
	// the store's in-process decoded cache absorbed them without touching
	// the file; SectionScans and SectionSkips count the format's
	// per-section checksum scans run and avoided (a cached hit skips all
	// of them, the aliasing mmap path defers the two arena sections,
	// an early validation failure skips the sections never reached).
	// Store-global: engines sharing one SnapshotStore see shared counts.
	// All zero without a store.
	DecodedCacheHits   int64
	DecodedCacheMisses int64
	SectionScans       int64
	SectionSkips       int64
}

// snapshotCounters is the atomic-counter block behind SnapshotStats,
// embedded in Engine.
type snapshotCounters struct {
	snapHits        atomic.Int64
	snapMisses      atomic.Int64
	snapStores      atomic.Int64
	computes        atomic.Int64
	snapLoadedBytes atomic.Int64
	snapStoredBytes atomic.Int64
}

// SnapshotStats reports the engine's snapshot-tier traffic so far. All
// counters are zero except Computes when no SnapshotStore is configured.
func (e *Engine) SnapshotStats() SnapshotStats {
	st := SnapshotStats{
		Hits:        e.snap.snapHits.Load(),
		Misses:      e.snap.snapMisses.Load(),
		Stores:      e.snap.snapStores.Load(),
		Computes:    e.snap.computes.Load(),
		LoadedBytes: e.snap.snapLoadedBytes.Load(),
		StoredBytes: e.snap.snapStoredBytes.Load(),
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
// re-validation, an I/O error — lands in the same place: count a miss and
// let the caller run the real precompute. The disk tier can therefore
// never produce a wrong answer, only a slower one.
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
	s, err := ss.store.Load(fp)
	if err != nil {
		e.snap.snapMisses.Add(1)
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
// checker's write-once arenas and copies only the idom array. A failed
// save is dropped: it is traced and timed but not counted as a store.
//
// Snapshots are keyed by fingerprint, not by function: a function with
// the same CFG shape as one already stored has nothing to write.
func (e *Engine) saveSnapshot(ss *SnapshotStore, live *Liveness) {
	cr, ok := live.res.(*backend.CheckerResult)
	if !ok {
		return
	}
	snap, err := snapshot.Capture(cr.Prep(), cr.Checker())
	if err != nil || ss.store.Contains(snap.FP) {
		return
	}
	start := time.Now()
	err = ss.store.Save(snap)
	d := time.Since(start)
	e.met.snapSaveNs.Observe(d.Nanoseconds())
	e.tracer.SnapshotSave(err == nil, d)
	if err == nil {
		e.snap.snapStores.Add(1)
		e.snap.snapStoredBytes.Add(snap.SizeBytes())
	}
}
