package fastliveness

// Disk-tier tests: the snapshot store under the engine LRU must eliminate
// precomputes on warm starts, serve eviction refills from disk, key on CFG
// structure only (instruction edits keep hitting, CFG edits miss), and
// degrade a corrupt store to recomputation — never to a wrong answer.

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"fastliveness/internal/ir"
)

// snapshotDir opens a store over a fresh temp directory.
func snapshotDir(t *testing.T) *SnapshotStore {
	t.Helper()
	ss, err := OpenSnapshotStore(filepath.Join(t.TempDir(), "snap"), 0)
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// coldWarm runs the same deterministic corpus through two engine
// lifetimes sharing one store and returns both engines' stats plus the
// answer fingerprints (regenerating the corpus for the warm run, the way a
// second process re-reads the same program from source).
func TestEngineSnapshotWarmStart(t *testing.T) {
	const n = 18
	ss := snapshotDir(t)

	cold := engineCorpus(t, n, 321)
	e1, err := AnalyzeProgram(cold, EngineConfig{Parallelism: 2, SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	// Write-backs are inline: every save is on disk when Precompute
	// returns, before any Close — a process may exit right after it.
	if s := e1.SnapshotStats(); s.Stores != n || ss.Len() != n {
		t.Fatalf("after Precompute: %d stores, %d files on disk; want %d/%d", s.Stores, ss.Len(), n, n)
	}
	fp1 := fingerprint(t, e1, cold)
	e1.Close()
	s1 := e1.SnapshotStats()
	if s1.Hits+s1.Misses != n {
		t.Fatalf("cold run consulted the store %d times, want %d", s1.Hits+s1.Misses, n)
	}
	if s1.Computes != s1.Misses {
		t.Fatalf("cold run: %d computes for %d misses; every miss (and only misses) must compute",
			s1.Computes, s1.Misses)
	}
	if s1.Stores == 0 || ss.Len() == 0 {
		t.Fatalf("cold run left no snapshots behind (stores=%d, files=%d)", s1.Stores, ss.Len())
	}
	if s1.StoredBytes != ss.SizeBytes() {
		t.Fatalf("StoredBytes %d, directory holds %d", s1.StoredBytes, ss.SizeBytes())
	}

	warm := engineCorpus(t, n, 321) // same shapes, fresh IR: a new process
	e2, err := AnalyzeProgram(warm, EngineConfig{Parallelism: 2, SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	fp2 := fingerprint(t, e2, warm)
	e2.Close()
	s2 := e2.SnapshotStats()
	if s2.Misses != 0 || s2.Hits != n {
		t.Fatalf("warm run: %d hits, %d misses; want %d/0", s2.Hits, s2.Misses, n)
	}
	if s2.Computes != 0 {
		t.Fatalf("warm run ran %d precomputes on an unchanged corpus, want 0", s2.Computes)
	}
	if e2.Rebuilds() != 0 {
		t.Fatalf("warm run: %d rebuilds, want 0", e2.Rebuilds())
	}
	if s2.LoadedBytes == 0 {
		t.Fatal("warm run loaded 0 bytes")
	}
	// Every warm load is a build like any other: counted, timed, and
	// checked against the store's per-section accounting (5 sections per
	// load, each either scanned or skipped).
	m2 := e2.Metrics()
	if m2.Builds != n || m2.BuildNs.Count != uint64(m2.Builds) {
		t.Fatalf("warm run: %d builds with %d latency samples, want %d/%d", m2.Builds, m2.BuildNs.Count, n, n)
	}
	if got := s2.SectionScans + s2.SectionSkips; got != 5*s2.Hits {
		t.Fatalf("warm run: %d section scans + %d skips, want 5 per hit (%d)", s2.SectionScans, s2.SectionSkips, 5*s2.Hits)
	}
	if fp1 != fp2 {
		t.Fatal("snapshot-loaded answers differ from freshly computed answers")
	}
}

// Eviction + re-request must be served from disk, not recomputation.
func TestEngineSnapshotEvictionRefillsFromDisk(t *testing.T) {
	const n, maxCached = 12, 4
	ss := snapshotDir(t)
	funcs := engineCorpus(t, n, 555)
	e, err := AnalyzeProgram(funcs, EngineConfig{
		Parallelism: 1, MaxCached: maxCached, SnapshotStore: ss,
	})
	if err != nil {
		t.Fatal(err)
	}
	coldComputes := e.SnapshotStats().Computes
	if r := e.Resident(); r != maxCached {
		t.Fatalf("%d resident after precompute, want %d", r, maxCached)
	}

	fingerprint(t, e, funcs) // sweeps every function: evicted ones refill
	s := e.SnapshotStats()
	if s.Computes != coldComputes {
		t.Fatalf("eviction refills recomputed (%d -> %d computes); want disk serves them",
			coldComputes, s.Computes)
	}
	if refillHits := s.Hits + s.Misses - int64(n); refillHits < int64(n-maxCached) {
		t.Fatalf("only %d store consults beyond the cold pass for ≥ %d refills",
			refillHits, n-maxCached)
	}
}

// The fingerprint contract under the two edit classes: instruction edits
// keep hitting the same snapshot (across engine lifetimes), CFG edits
// change the key and recompute.
func TestEngineSnapshotEditClasses(t *testing.T) {
	ss := snapshotDir(t)
	f := engineCorpus(t, 1, 99)[0]
	e, err := AnalyzeProgram([]*ir.Func{f}, EngineConfig{Parallelism: 1, SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	if s := e.SnapshotStats(); s.Misses != 1 || s.Computes != 1 {
		t.Fatalf("cold build: %+v", s)
	}

	// Instruction edit: the checker stays fresh — no rebuild, so the store
	// is not even consulted, and the store's key space is untouched.
	addSomeUse(t, f)
	if _, err := e.Liveness(f); err != nil {
		t.Fatal(err)
	}
	if s := e.SnapshotStats(); s.Hits+s.Misses != 1 || s.Computes != 1 {
		t.Fatalf("instruction edit caused analysis traffic: %+v", s)
	}
	filesBefore := ss.Len()

	// CFG edit: stale → rebuild → new fingerprint → miss + compute + save.
	splitSomeEdge(t, f)
	if _, err := e.Liveness(f); err != nil {
		t.Fatal(err)
	}
	s := e.SnapshotStats()
	if s.Misses != 2 || s.Computes != 2 {
		t.Fatalf("CFG edit did not force a snapshot miss + recompute: %+v", s)
	}
	if ss.Len() != filesBefore+1 {
		t.Fatalf("store holds %d files after CFG edit, want %d", ss.Len(), filesBefore+1)
	}

	// New process, same source, same instruction-only edit: the cold
	// snapshot (saved before any edit) must still hit — the key ignores
	// instructions — and answer identically to a storeless engine.
	f2 := engineCorpus(t, 1, 99)[0]
	addSomeUse(t, f2)
	e2, err := AnalyzeProgram([]*ir.Func{f2}, EngineConfig{Parallelism: 1, SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	if s := e2.SnapshotStats(); s.Hits != 1 || s.Computes != 0 {
		t.Fatalf("instruction-edited warm start: %+v, want 1 hit / 0 computes", s)
	}
	f3 := engineCorpus(t, 1, 99)[0]
	addSomeUse(t, f3)
	e3, err := AnalyzeProgram([]*ir.Func{f3}, EngineConfig{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	if fingerprint(t, e2, []*ir.Func{f2}) != fingerprint(t, e3, []*ir.Func{f3}) {
		t.Fatal("snapshot-loaded answers differ from storeless engine after instruction edit")
	}
}

// A store full of garbage must cost only recomputation: identical answers,
// misses instead of hits, and — because failed loads unlink the garbage —
// the following run is fully warm again.
func TestEngineSnapshotCorruptStoreDegrades(t *testing.T) {
	const n = 10
	ss := snapshotDir(t)
	cold := engineCorpus(t, n, 888)
	e1, err := AnalyzeProgram(cold, EngineConfig{Parallelism: 1, SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	want := fingerprint(t, e1, cold)

	entries, err := os.ReadDir(ss.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for i, ent := range entries {
		path := filepath.Join(ss.Dir(), ent.Name())
		if i%2 == 0 {
			buf, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			buf[len(buf)/3] ^= 0x10 // bit flip
			if err := os.WriteFile(path, buf, 0o666); err != nil {
				t.Fatal(err)
			}
		} else if err := os.Truncate(path, 20); err != nil { // torn write
			t.Fatal(err)
		}
	}

	damaged := engineCorpus(t, n, 888)
	e2, err := AnalyzeProgram(damaged, EngineConfig{Parallelism: 1, SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, e2, damaged); got != want {
		t.Fatal("corrupt store changed answers; must only cost recomputation")
	}
	s2 := e2.SnapshotStats()
	if s2.Hits+s2.Misses != n || s2.Computes != s2.Misses || s2.Misses == 0 {
		t.Fatalf("corrupt-store run: %+v", s2)
	}

	healed := engineCorpus(t, n, 888)
	e3, err := AnalyzeProgram(healed, EngineConfig{Parallelism: 1, SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	if s3 := e3.SnapshotStats(); s3.Misses != 0 || s3.Computes != 0 {
		t.Fatalf("store did not heal after recompute: %+v", s3)
	}
}

// A store full of old-format files degrades every load to a clean
// version-skew miss — never a wrong answer, never a hard error — and the
// recomputes rewrite the directory in the current format, so the next run
// is fully warm again. This is the migration path from every retired
// version: v2 (dense R/T, idom only) and v3 (dense T). The byte-level v2
// decode and store behavior is pinned in internal/snapshot, and the CI
// warm-start smoke patches a version byte exactly like this with dd.
func TestEngineSnapshotVersionSkewRewritesStore(t *testing.T) {
	const n = 6
	for _, version := range []byte{2, 3} {
		t.Run(fmt.Sprintf("v%d", version), func(t *testing.T) {
			ss := snapshotDir(t)
			cold := engineCorpus(t, n, 999)
			e1, err := AnalyzeProgram(cold, EngineConfig{Parallelism: 1, SnapshotStore: ss})
			if err != nil {
				t.Fatal(err)
			}
			want := fingerprint(t, e1, cold)

			// Stamp every file's version field: the shape of a directory an
			// older process left behind.
			entries, err := os.ReadDir(ss.Dir())
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) == 0 {
				t.Fatal("cold run left no snapshots behind")
			}
			for _, ent := range entries {
				path := filepath.Join(ss.Dir(), ent.Name())
				buf, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				buf[8] = version
				if err := os.WriteFile(path, buf, 0o666); err != nil {
					t.Fatal(err)
				}
			}

			skewed := engineCorpus(t, n, 999)
			e2, err := AnalyzeProgram(skewed, EngineConfig{Parallelism: 1, SnapshotStore: ss})
			if err != nil {
				t.Fatalf("version skew must degrade to recompute, not fail: %v", err)
			}
			if got := fingerprint(t, e2, skewed); got != want {
				t.Fatal("version-skewed store changed answers")
			}
			s2 := e2.SnapshotStats()
			if s2.Hits != 0 || s2.Misses != n || s2.Computes != n {
				t.Fatalf("skewed run: %+v, want 0 hits / %d misses / %d computes", s2, n, n)
			}
			if s2.SectionScans != 0 {
				t.Fatalf("version-skewed loads scanned %d sections, want 0 (skew is caught before any payload scan)",
					s2.SectionScans)
			}

			healed := engineCorpus(t, n, 999)
			e3, err := AnalyzeProgram(healed, EngineConfig{Parallelism: 1, SnapshotStore: ss})
			if err != nil {
				t.Fatal(err)
			}
			if s3 := e3.SnapshotStats(); s3.Hits != n || s3.Misses != 0 || s3.Computes != 0 {
				t.Fatalf("store was not rewritten as current-format: %+v", s3)
			}
		})
	}
}

// Steady-state queries against a snapshot-loaded handle allocate nothing,
// same as a freshly computed one (alloc_test.go contract).
func TestEngineSnapshotLoadedQueriesZeroAlloc(t *testing.T) {
	ss := snapshotDir(t)
	cold := engineCorpus(t, 1, 42)
	e1, err := AnalyzeProgram(cold, EngineConfig{Parallelism: 1, SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	_ = e1

	warm := engineCorpus(t, 1, 42)
	e2, err := AnalyzeProgram(warm, EngineConfig{Parallelism: 1, SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	if s := e2.SnapshotStats(); s.Hits != 1 {
		t.Fatalf("workload was not snapshot-loaded: %+v", s)
	}
	live, err := e2.Liveness(warm[0])
	if err != nil {
		t.Fatal(err)
	}
	f := warm[0]
	var vals []*ir.Value
	f.Values(func(v *ir.Value) {
		if v.Op.HasResult() {
			vals = append(vals, v)
		}
	})
	sweep := func() {
		for _, v := range vals {
			for _, b := range f.Blocks {
				live.IsLiveIn(v, b)
				live.IsLiveOut(v, b)
			}
		}
	}
	if avg := testing.AllocsPerRun(10, sweep); avg != 0 {
		t.Errorf("snapshot-loaded steady-state sweep: %v allocs, want 0", avg)
	}
}

// Concurrent queries, edits and rebuilds over a live store — run under
// -race in CI. Answers are validated by construction (Oracle re-fetches
// across edits); the property under test is freedom from data races
// between the inline saves, the edits and the query paths.
func TestEngineSnapshotConcurrentEditQuery(t *testing.T) {
	ss := snapshotDir(t)
	funcs := engineCorpus(t, 8, 1234)
	e, err := AnalyzeProgram(funcs, EngineConfig{Parallelism: 2, SnapshotStore: ss})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	// Pick each function's query value and blocks before the editor
	// starts: walking the IR outside Edit's lock would race the edits.
	// Edits only add values and split edges, so the picks stay valid.
	type probe struct {
		v      *ir.Value
		blocks []*ir.Block
	}
	probes := make(map[*ir.Func]probe, len(funcs))
	for _, f := range funcs {
		var v *ir.Value
		f.Values(func(x *ir.Value) {
			if v == nil && x.Op.HasResult() {
				v = x
			}
		})
		probes[f] = probe{v, append([]*ir.Block(nil), f.Blocks[:min(4, len(f.Blocks))]...)}
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				f := funcs[(g+iter)%len(funcs)]
				o, err := e.Oracle(f)
				if err != nil {
					continue // racing a CFG edit that momentarily broke analysis
				}
				v := probes[f].v
				for _, b := range probes[f].blocks {
					o.IsLiveIn(v, b)
					o.IsLiveOut(v, b)
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for iter := 0; iter < 12; iter++ {
			f := funcs[iter%len(funcs)]
			e.Edit(f, func() {
				if iter%3 == 0 {
					for _, b := range f.Blocks {
						if len(b.Succs) > 0 {
							b.SplitEdge(0)
							break
						}
					}
				} else {
					var v *ir.Value
					f.Values(func(x *ir.Value) {
						if v == nil && x.Op.HasResult() {
							v = x
						}
					})
					v.Block.NewValue(ir.OpNeg, v)
				}
			})
		}
	}()
	wg.Wait()
}
