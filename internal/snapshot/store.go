package snapshot

import (
	"bufio"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastliveness/internal/faults"
)

// ErrNotFound is returned by Store.Load when no snapshot exists for the
// fingerprint — the ordinary cache-miss signal, distinct from corruption
// (which surfaces as a Decode error and equally degrades to recompute).
var ErrNotFound = errors.New("snapshot: not found")

const fileExt = ".flsnap"

// Store manages a directory of snapshot files, one per fingerprint
// (<%016x>.flsnap), with a byte budget enforced by mtime-ordered GC —
// effectively LRU, because Load touches the file it hits. Saves go through
// a temp file plus atomic rename, so concurrent processes sharing a
// directory never observe half-written snapshots; the checksum in the
// format catches everything else. Each Save streams its temp file outside
// the mutex, which serializes only the renames and GC passes within one
// process (GC ignores temp files); cross-process races at worst re-save
// an identical file or GC a file the other process re-creates — benign,
// because snapshots are pure functions of their fingerprint.
//
// Loads are mmap-backed where the platform allows (see mapFile): the
// decoded Snapshot's R and T arenas alias the read-only mapping, so the
// kernel's page cache — shared across every process mapping the same file
// — is the only copy of the O(n²) payload, and a load moves no matrix
// bytes at all: the R/T arena checksums are not scanned on this path
// unless SetVerifyArenas opts in (structural sections always are; see
// the format comment's corruption contract). Validated snapshots are cached
// per fingerprint for the store's lifetime; since a snapshot is a pure
// function of its fingerprint and Save only ever replaces files via
// rename (new inode, existing mappings untouched), a cached entry can
// never go stale. The flip side of aliasing the file is a contract on
// writers: snapshot files must be replaced atomically, as Save does —
// truncating a file in place while some process has it loaded is
// undefined (SIGBUS territory), exactly as with any mmap'd format.
type Store struct {
	dir      string
	maxBytes int64 // <= 0 means unbounded
	mu       sync.Mutex
	cache    map[uint64]*Snapshot // validated loads, alive for the store's lifetime

	// injector is the store's fault seam (sites FaultSiteLoad and
	// FaultSiteSave, fired on the I/O path before any file is touched).
	// Nil — the production state — costs one atomic load per operation.
	injector atomic.Pointer[faults.Injector]

	// GC accounting, readable without the store lock (GCStats).
	gcRuns atomic.Int64
	gcNs   atomic.Int64

	// Decoded-cache and section-scan accounting (Stats): how many Loads
	// the in-process cache absorbed, and how many per-section checksum
	// scans the format's early-exit validation avoided.
	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	secScans    atomic.Int64
	secSkips    atomic.Int64

	// verifyArenas forces eager R/T checksum scans on the aliasing mmap
	// path; see SetVerifyArenas.
	verifyArenas atomic.Bool
}

// StoreStats counts a store's load traffic at the layer below the
// engine's hit/miss accounting: whether a Load was absorbed by the
// in-process decoded cache, and — for loads that did touch a file — how
// many of the format's checksum-sealed sections were actually scanned.
type StoreStats struct {
	// DecodedCacheHits and DecodedCacheMisses split Loads by whether the
	// per-store decoded cache already held a validated snapshot for the
	// fingerprint.
	DecodedCacheHits   int64
	DecodedCacheMisses int64
	// SectionScans and SectionSkips count per-section checksum scans run
	// and avoided; each load that finds an entry (cached or on disk)
	// accounts for exactly numSections of them, while a load of a missing
	// fingerprint accounts for none — there were no sections to consider.
	// A cached hit skips all five; an aliasing mmap load scans the three
	// structural sections and skips the R and T arena sections (unless
	// SetVerifyArenas opts in); a copying load scans all five; a load that
	// fails an early validation skips the sections it never reached.
	SectionScans int64
	SectionSkips int64
}

// Stats reports the store's decoded-cache and section-scan counters.
// Store-global: engines sharing one store observe shared counts.
func (st *Store) Stats() StoreStats {
	return StoreStats{
		DecodedCacheHits:   st.cacheHits.Load(),
		DecodedCacheMisses: st.cacheMisses.Load(),
		SectionScans:       st.secScans.Load(),
		SectionSkips:       st.secSkips.Load(),
	}
}

// SetVerifyArenas opts this store's mmap loads into eager R/T arena
// checksum scans. By default the aliasing path verifies the header and
// the three structural sections and defers the arena scans — that
// deferral is what makes a warm load sub-linear in the O(n²) R matrix,
// and it is the standard mmap'd-format trade: a bit flip on disk under an
// already-validated structure would go unscanned until a copying load or
// a recompute touches it (a T arena bent out of shape still fails
// core.Adopt's check). Deployments that would rather
// pay a linear pass per file-backed load for eager end-to-end integrity
// set this once, before loading. (Copying loads — forced fallback,
// non-aliasing hosts — always verify all sections regardless.)
func (st *Store) SetVerifyArenas(v bool) { st.verifyArenas.Store(v) }

// Fault-injection sites the store fires on its I/O paths; see
// SetFaultInjector.
const (
	FaultSiteLoad = "snapshot.load"
	FaultSiteSave = "snapshot.save"
)

// SetFaultInjector arms (or, with nil, disarms) deterministic fault
// injection on the store's I/O paths: FaultSiteLoad fires at the top of
// every Load that misses the in-process cache, FaultSiteSave at the top
// of every Save. Injected errors surface exactly like real disk errors;
// injected delays model a slow disk. Test instrumentation only.
func (st *Store) SetFaultInjector(in *faults.Injector) {
	st.injector.Store(in)
}

// fire triggers the armed injector at site; nil injectors never fire.
func (st *Store) fire(site string) error {
	return st.injector.Load().Fire(site)
}

// Open creates (if needed) and opens a snapshot directory. maxBytes bounds
// the directory's total snapshot size; <= 0 disables the bound.
func Open(dir string, maxBytes int64) (*Store, error) {
	if err := os.MkdirAll(dir, 0o777); err != nil {
		return nil, err
	}
	return &Store{dir: dir, maxBytes: maxBytes, cache: make(map[uint64]*Snapshot)}, nil
}

// Dir returns the store's directory.
func (st *Store) Dir() string { return st.dir }

func (st *Store) path(fp uint64) string {
	return filepath.Join(st.dir, fmt.Sprintf("%016x%s", fp, fileExt))
}

// Contains reports whether a snapshot file exists for fp (without reading
// or validating it) — the cheap dedupe check before scheduling a Save.
func (st *Store) Contains(fp uint64) bool {
	_, err := os.Stat(st.path(fp))
	return err == nil
}

// Load returns the decoded snapshot for fp — from the in-process cache
// when this store validated it before, otherwise by mapping and decoding
// the file. Missing files return ErrNotFound; corrupt or mismatched files
// return the Decode/consistency error. A fresh hit touches the file's
// mtime so the GC's eviction order tracks use, not just creation.
func (st *Store) Load(fp uint64) (*Snapshot, error) {
	st.mu.Lock()
	if s, ok := st.cache[fp]; ok {
		st.mu.Unlock()
		st.cacheHits.Add(1)
		st.secSkips.Add(numSections) // validated before; no section re-scanned
		return s, nil
	}
	st.mu.Unlock()
	st.cacheMisses.Add(1)

	if err := st.fire(FaultSiteLoad); err != nil {
		return nil, err
	}
	path := st.path(fp)
	buf, unmap, err := mapFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, ErrNotFound
		}
		return nil, err
	}
	s, scanned, err := decode(buf, st.verifyArenas.Load())
	st.secScans.Add(int64(scanned))
	st.secSkips.Add(int64(numSections - scanned))
	if err != nil {
		// The file is demonstrably garbage (or an old format version).
		// Delete it so a future save can repair the store; while it sat
		// there, Contains would dedupe the very save that could fix it.
		// The caller still sees the miss — the degradation path that turns
		// old-version files into recompute-then-rewrite.
		os.Remove(path)
		unmap()
		return nil, err
	}
	if s.FP != fp {
		os.Remove(path)
		unmap()
		return nil, fmt.Errorf("snapshot: file %s holds fingerprint %016x", filepath.Base(path), s.FP)
	}
	if !decodeAliases() {
		unmap() // Decode copied the arrays; nothing aliases the mapping
	}
	now := time.Now()
	_ = os.Chtimes(path, now, now) // best-effort recency for GC

	st.mu.Lock()
	defer st.mu.Unlock()
	if prior, ok := st.cache[fp]; ok {
		// A concurrent loader won. Nothing else holds this load's snapshot,
		// so its mapping can go: one mapping per fingerprint per process.
		if decodeAliases() {
			unmap()
		}
		return prior, nil
	}
	st.cache[fp] = s
	return s, nil
}

// Save writes s, keyed by its fingerprint, then enforces the byte
// budget. The file is streamed from s's own arrays (Snapshot.WriteTo)
// into a uniquely named temp file, outside the store lock, so parallel
// saves write concurrently; only the rename into place and the GC pass
// that follows it serialize. Writing an already-present fingerprint
// replaces the file with identical bytes — harmless, and what concurrent
// savers do to each other.
func (st *Store) Save(s *Snapshot) error {
	if err := st.fire(FaultSiteSave); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(st.dir, "tmp-*"+fileExt+".partial")
	if err != nil {
		return err
	}
	w := bufio.NewWriter(tmp)
	_, err = s.WriteTo(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	final := st.path(s.FP)
	st.mu.Lock()
	defer st.mu.Unlock()
	if err := os.Rename(tmp.Name(), final); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	st.gcLocked(filepath.Base(final))
	return nil
}

// SizeBytes sums the store's snapshot files.
func (st *Store) SizeBytes() int64 {
	var total int64
	for _, f := range st.files() {
		total += f.size
	}
	return total
}

// Len counts the store's snapshot files.
func (st *Store) Len() int { return len(st.files()) }

// GCStats reports how many byte-budget GC passes Save has run and their
// cumulative wall-clock time — the latency cost of keeping the directory
// inside its budget, exposed through the engine's metrics surface.
func (st *Store) GCStats() (runs int, totalNs int64) {
	return int(st.gcRuns.Load()), st.gcNs.Load()
}

type storeFile struct {
	name  string
	size  int64
	mtime time.Time
}

// files lists the directory's snapshot files (ignoring temp files and
// anything unstattable — it may have been GC'd by a concurrent process).
func (st *Store) files() []storeFile {
	entries, err := os.ReadDir(st.dir)
	if err != nil {
		return nil
	}
	var out []storeFile
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), fileExt) {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		out = append(out, storeFile{name: e.Name(), size: info.Size(), mtime: info.ModTime()})
	}
	return out
}

// gcLocked deletes oldest-first until the directory fits the byte budget,
// never deleting keep (the file just written — a budget smaller than one
// snapshot must not make Save a no-op that immediately unlinks its own
// work).
func (st *Store) gcLocked(keep string) {
	if st.maxBytes <= 0 {
		return
	}
	start := time.Now()
	defer func() {
		st.gcRuns.Add(1)
		st.gcNs.Add(time.Since(start).Nanoseconds())
	}()
	files := st.files()
	var total int64
	for _, f := range files {
		total += f.size
	}
	if total <= st.maxBytes {
		return
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= st.maxBytes {
			break
		}
		if f.name == keep {
			continue
		}
		if os.Remove(filepath.Join(st.dir, f.name)) == nil {
			total -= f.size
		}
	}
}
