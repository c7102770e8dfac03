package fastliveness

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/ssa"
)

// engineCorpus generates a deterministic multi-function SSA corpus with
// mixed shapes, including some irreducible control flow.
func engineCorpus(tb testing.TB, n int, seed int64) []*ir.Func {
	tb.Helper()
	funcs := make([]*ir.Func, n)
	for i := range funcs {
		c := gen.Default(seed + int64(i)*7919)
		c.TargetBlocks = 12 + (i*17)%60
		c.Irreducible = i%11 == 3
		f := gen.Generate(fmt.Sprintf("f%03d", i), c)
		ssa.Construct(f)
		funcs[i] = f
	}
	return funcs
}

// fingerprint renders every (value, block) live-in/out answer of every
// function, in program order, as one string — the byte-identical shape the
// determinism and equivalence tests compare.
func fingerprint(tb testing.TB, e *Engine, funcs []*ir.Func) string {
	tb.Helper()
	var sb strings.Builder
	for _, f := range funcs {
		live, err := e.Liveness(f)
		if err != nil {
			tb.Fatalf("%s: %v", f.Name, err)
		}
		fmt.Fprintf(&sb, "func %s\n", f.Name)
		f.Values(func(v *ir.Value) {
			if !v.Op.HasResult() {
				return
			}
			for _, b := range f.Blocks {
				fmt.Fprintf(&sb, "%s@%s:%v,%v ", v, b, live.IsLiveIn(v, b), live.IsLiveOut(v, b))
			}
		})
		sb.WriteByte('\n')
	}
	return sb.String()
}

// splitSomeEdge performs a deterministic CFG edit on f: the first block in
// program order that has a successor gets its 0th out-edge split.
func splitSomeEdge(tb testing.TB, f *ir.Func) {
	tb.Helper()
	for _, b := range f.Blocks {
		if len(b.Succs) > 0 {
			b.SplitEdge(0)
			return
		}
	}
	tb.Fatalf("%s: no block with a successor", f.Name)
}

// addSomeUse performs a deterministic instruction edit on f: the first
// result-producing value gains a fresh use in its own block.
func addSomeUse(tb testing.TB, f *ir.Func) {
	tb.Helper()
	var v *ir.Value
	f.Values(func(x *ir.Value) {
		if v == nil && x.Op.HasResult() {
			v = x
		}
	})
	if v == nil {
		tb.Fatalf("%s: no result-producing value", f.Name)
	}
	v.Block.NewValue(ir.OpNeg, v)
}

// invariantMetrics is m without what may differ between identical runs:
// the latency samples (their counts stay).
func invariantMetrics(m EngineMetrics) EngineMetrics {
	m.SnapshotGCNs = 0
	for _, h := range []*HistogramSnapshot{&m.BuildNs, &m.BatchNs, &m.SnapshotLoadNs, &m.SnapshotSaveNs} {
		*h = HistogramSnapshot{Count: h.Count}
	}
	return m
}

// TestEngineDeterministicAcrossParallelism runs an identical corpus and an
// identical serial edit+query script at worker counts 1, 4 and 16 and
// demands byte-identical observable state: every query answer, each
// function's backend and footprint, Metrics and MemoryBytes.
func TestEngineDeterministicAcrossParallelism(t *testing.T) {
	type outcome struct {
		fingerprint string
		backends    string // per function: backend and MemoryBytes
		metrics     EngineMetrics
		memory      int
	}
	run := func(t *testing.T, workers int) outcome {
		funcs := engineCorpus(t, 24, 1)
		e, err := AnalyzeProgram(funcs, EngineConfig{Parallelism: workers})
		if err != nil {
			t.Fatalf("parallelism %d: %v", workers, err)
		}
		fp := fingerprint(t, e, funcs)
		// Deterministic edit script: every 3rd function takes a CFG edit
		// (stales the checker), every 2nd an instruction edit (does not).
		for i, f := range funcs {
			if i%3 == 0 {
				splitSomeEdge(t, f)
			}
			if i%2 == 0 {
				addSomeUse(t, f)
			}
		}
		fp += fingerprint(t, e, funcs)
		var backends string
		for _, f := range funcs {
			live, err := e.Liveness(f)
			if err != nil {
				t.Fatal(err)
			}
			backends += fmt.Sprintf("%s:%s:%d ", f.Name, live.Backend(), live.MemoryBytes())
		}
		return outcome{
			fingerprint: fp,
			backends:    backends,
			metrics:     invariantMetrics(e.Metrics()),
			memory:      e.MemoryBytes(),
		}
	}

	base := run(t, 1)
	if base.metrics.Rebuilds == 0 {
		t.Fatal("edit script should force rebuilds (CFG edits on a checker engine)")
	}
	if base.metrics.Resident != 24 {
		t.Fatalf("Resident = %d with unlimited cache, want 24", base.metrics.Resident)
	}
	for _, workers := range []int{4, 16} {
		got := run(t, workers)
		if got.fingerprint != base.fingerprint {
			t.Errorf("parallelism %d: query answers differ from parallelism 1", workers)
		}
		if got.backends != base.backends {
			t.Errorf("parallelism %d: per-function backends/footprints\n%s\nparallelism 1\n%s", workers, got.backends, base.backends)
		}
		if !reflect.DeepEqual(got.metrics, base.metrics) {
			t.Errorf("parallelism %d: Metrics() = %+v, parallelism 1 %+v", workers, got.metrics, base.metrics)
		}
		if got.memory != base.memory {
			t.Errorf("parallelism %d: MemoryBytes() = %d, parallelism 1 %d", workers, got.memory, base.memory)
		}
	}
}

// allQueries enumerates every (variable, block) pair of f.
func allQueries(f *ir.Func) []Query {
	var qs []Query
	f.Values(func(v *ir.Value) {
		if !v.Op.HasResult() {
			return
		}
		for _, b := range f.Blocks {
			qs = append(qs, Query{V: v, B: b})
		}
	})
	return qs
}

func TestBatchMatchesSingleQueries(t *testing.T) {
	funcs := engineCorpus(t, 8, 42)
	e, err := AnalyzeProgram(funcs, EngineConfig{Parallelism: 8})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range funcs {
		qs := allQueries(f)
		if len(qs) <= batchParallelThreshold && f == funcs[0] {
			t.Logf("note: %s has only %d queries; sharded path exercised by larger funcs", f.Name, len(qs))
		}
		ins, err := e.BatchIsLiveIn(f, qs)
		if err != nil {
			t.Fatal(err)
		}
		outs, err := e.BatchIsLiveOut(f, qs)
		if err != nil {
			t.Fatal(err)
		}
		live, err := e.Liveness(f)
		if err != nil {
			t.Fatal(err)
		}
		for i, q := range qs {
			if want := live.IsLiveIn(q.V, q.B); ins[i] != want {
				t.Fatalf("%s: batch live-in(%s,%s)=%v, single=%v", f.Name, q.V, q.B, ins[i], want)
			}
			if want := live.IsLiveOut(q.V, q.B); outs[i] != want {
				t.Fatalf("%s: batch live-out(%s,%s)=%v, single=%v", f.Name, q.V, q.B, outs[i], want)
			}
		}
	}
}

func TestEngineEvictionRebuilds(t *testing.T) {
	funcs := engineCorpus(t, 6, 7)
	e, err := AnalyzeProgram(funcs, EngineConfig{MaxCached: 2, Parallelism: 3})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Resident(); got != 2 {
		t.Fatalf("Resident = %d after precompute with MaxCached=2", got)
	}
	// Un-cached engine as the reference for a fully evicted function.
	ref, err := Analyze(funcs[0], Config{})
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := e.Liveness(funcs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range funcs[0].Blocks {
		funcs[0].Values(func(v *ir.Value) {
			if !v.Op.HasResult() {
				return
			}
			if rebuilt.IsLiveIn(v, b) != ref.IsLiveIn(v, b) {
				t.Fatalf("rebuilt analysis disagrees at live-in(%s,%s)", v, b)
			}
		})
	}
	if got := e.Resident(); got != 2 {
		t.Fatalf("Resident = %d after rebuild, want 2", got)
	}
	if e.MemoryBytes() <= 0 {
		t.Fatal("MemoryBytes should be positive with resident analyses")
	}
}

// MaxCached is an exact bound in true LRU order: after f0, f1, f0, f2 with
// room for two, the victim is f1 (least recently used engine-wide), and
// f0 and f2 stay resident, so repeat requests for either are hits.
func TestEngineEvictionExactLRU(t *testing.T) {
	funcs := engineCorpus(t, 3, 29)
	f0, f1, f2 := funcs[0], funcs[1], funcs[2]
	e := NewEngine(EngineConfig{MaxCached: 2})
	defer e.Close()
	e.Add(funcs...)
	request := func(fs ...*ir.Func) {
		t.Helper()
		for _, f := range fs {
			if _, err := e.Liveness(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	request(f0, f1, f0, f2, f2, f2, f2, f2, f2)
	if m := e.Metrics(); m.Builds != 3 || e.Resident() != 2 {
		t.Fatalf("Builds = %d, Resident = %d; want 3 builds (repeats are hits) and 2 resident", m.Builds, e.Resident())
	}
	// f0 and f2 are hits; f1 was the victim and rebuilds.
	request(f0, f2)
	if got := e.Metrics().Builds; got != 3 {
		t.Fatalf("Builds = %d after requesting f0 and f2, want 3: one of them was evicted", got)
	}
	request(f1)
	if got := e.Metrics().Builds; got != 4 {
		t.Fatalf("Builds = %d after requesting f1, want 4: f1 should have been evicted", got)
	}
}

func TestEnginePrecomputeErrorNamesFunction(t *testing.T) {
	good := engineCorpus(t, 2, 3)
	bad := ir.NewFunc("island")
	bad.NewBlock(ir.BlockRet)
	bad.NewBlock(ir.BlockRet) // unreachable
	e := NewEngine(EngineConfig{Parallelism: 2})
	e.Add(good[0], bad, good[1])
	err := e.Precompute()
	if err == nil || !strings.Contains(err.Error(), "island") {
		t.Fatalf("Precompute error = %v, want mention of 'island'", err)
	}
	// Healthy functions are still served.
	if _, err := e.Liveness(good[1]); err != nil {
		t.Fatalf("good function after failed precompute: %v", err)
	}
	// The failure is sticky until invalidated.
	if _, err := e.Liveness(bad); err == nil {
		t.Fatal("bad function should keep failing")
	}
}

func TestEngineRejectsUnregistered(t *testing.T) {
	e := NewEngine(EngineConfig{})
	f := engineCorpus(t, 1, 9)[0]
	if _, err := e.Liveness(f); err == nil {
		t.Fatal("Liveness on an unregistered function should fail")
	}
	if _, err := e.BatchIsLiveIn(f, nil); err == nil {
		t.Fatal("BatchIsLiveIn on an unregistered function should fail")
	}
}

func TestEngineInvalidate(t *testing.T) {
	funcs := engineCorpus(t, 1, 11)
	f := funcs[0]
	e, err := AnalyzeProgram(funcs, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.Liveness(f)
	if err != nil {
		t.Fatal(err)
	}
	e.Invalidate(f)
	if got := e.Resident(); got != 0 {
		t.Fatalf("Resident = %d after Invalidate, want 0", got)
	}
	after, err := e.Liveness(f)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("Invalidate should force a fresh analysis object")
	}
}

// TestEngineConcurrentStress hammers one engine from many goroutines —
// cache hits, rebuild-after-eviction races, shared batch queries — and is
// the workload the CI -race run checks. Answers are validated against
// per-function reference analyses.
func TestEngineConcurrentStress(t *testing.T) {
	n := 16
	if testing.Short() {
		n = 6
	}
	funcs := engineCorpus(t, n, 23)
	refs := make(map[*ir.Func]*Liveness, n)
	for _, f := range funcs {
		ref, err := Analyze(f, Config{})
		if err != nil {
			t.Fatal(err)
		}
		refs[f] = ref
	}
	e, err := AnalyzeProgram(funcs, EngineConfig{Parallelism: 8, MaxCached: n / 2})
	if err != nil {
		t.Fatal(err)
	}
	const workers = 12
	errs := make(chan error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for iter := 0; iter < 40; iter++ {
				f := funcs[(w*31+iter*13)%len(funcs)]
				qs := allQueries(f)
				if len(qs) > 300 {
					qs = qs[(w*97)%100 : (w*97)%100+300]
				}
				got, err := e.BatchIsLiveIn(f, qs)
				if err != nil {
					errs <- err
					return
				}
				ref := refs[f]
				for i, q := range qs {
					if got[i] != ref.IsLiveIn(q.V, q.B) {
						errs <- fmt.Errorf("worker %d: %s live-in(%s,%s) mismatch", w, f.Name, q.V, q.B)
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	wg.Wait()
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// The engine must notice a CFG edit on its own: the next Liveness request
// sees the stale epochs, rebuilds, counts the rebuild, and answers against
// the edited program — no Invalidate call anywhere.
func TestEngineAutoRebuildAfterCFGEdit(t *testing.T) {
	funcs := engineCorpus(t, 2, 77)
	f := funcs[0]
	e, err := AnalyzeProgram(funcs, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	before, err := e.Liveness(f)
	if err != nil {
		t.Fatal(err)
	}
	f.Entry().SplitEdge(0)
	if !before.Stale() {
		t.Fatal("handle should read as stale after a CFG edit")
	}
	after, err := e.Liveness(f)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("engine served the stale analysis after a CFG edit")
	}
	if after.Stale() {
		t.Fatal("rebuilt analysis should be fresh")
	}
	if got := e.Rebuilds(); got != 1 {
		t.Fatalf("Rebuilds = %d, want 1", got)
	}
	// The untouched sibling stays resident and unrebuilt.
	if got := e.Resident(); got != 2 {
		t.Fatalf("Resident = %d, want 2", got)
	}
	ref, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range f.Blocks {
		f.Values(func(v *ir.Value) {
			if !v.Op.HasResult() {
				return
			}
			if after.IsLiveIn(v, b) != ref.IsLiveIn(v, b) {
				t.Fatalf("rebuilt analysis disagrees with fresh at live-in(%s, %s)", v, b)
			}
		})
	}
}

// Instruction-only edits must NOT trigger engine rebuilds with the
// checker (the paper's property, engine-level), and must trigger exactly
// one with a set-producing backend.
func TestEngineRebuildPolicyPerBackend(t *testing.T) {
	for _, tc := range []struct {
		backend      string
		wantRebuilds int
	}{
		{"", 0}, // checker
		{"dataflow", 1},
	} {
		funcs := engineCorpus(t, 1, 99)
		f := funcs[0]
		e, err := AnalyzeProgram(funcs, EngineConfig{Config: Config{Backend: tc.backend}})
		if err != nil {
			t.Fatal(err)
		}
		before, err := e.Liveness(f)
		if err != nil {
			t.Fatal(err)
		}
		// Instruction edit: a fresh use of some value in its own block.
		var v *ir.Value
		f.Values(func(x *ir.Value) {
			if v == nil && x.Op.HasResult() {
				v = x
			}
		})
		v.Block.NewValue(ir.OpNeg, v)
		after, err := e.Liveness(f)
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Rebuilds(); got != tc.wantRebuilds {
			t.Fatalf("backend %q: Rebuilds = %d after instruction edit, want %d", tc.backend, got, tc.wantRebuilds)
		}
		if (after == before) != (tc.wantRebuilds == 0) {
			t.Fatalf("backend %q: handle identity does not match rebuild expectation", tc.backend)
		}
	}
}

// An analysis error must not outlive the program state it described: once
// the function is edited, the engine rebuilds instead of serving the old
// verdict.
func TestEngineErrorClearedByEdit(t *testing.T) {
	bad := ir.NewFunc("fixme")
	entry := bad.NewBlock(ir.BlockPlain) // plain block with no successor: malformed
	ret := bad.NewBlock(ir.BlockRet)
	e := NewEngine(EngineConfig{})
	e.Add(bad)
	if _, err := e.Liveness(bad); err == nil {
		t.Fatal("malformed function should fail analysis")
	}
	if _, err := e.Liveness(bad); err == nil {
		t.Fatal("failure should persist while the function is unedited")
	}
	entry.AddEdgeTo(ret) // fix it (a CFG edit: epochs move)
	if _, err := e.Liveness(bad); err != nil {
		t.Fatalf("edited-and-fixed function should analyze: %v", err)
	}
}

// Engine.Oracle must keep answering correctly across both edit classes:
// instruction edits are visible with zero rebuilds (checker), CFG edits
// force exactly one transparent rebuild.
func TestEngineOracleTracksEdits(t *testing.T) {
	f := ir.MustParse(`
func @loop(%n) {
entry:
  %zero = const 0
  %one = const 1
  br head
head:
  %i = phi [%zero, entry], [%inext, body]
  %cmp = cmplt %i, %n
  if %cmp -> body, exit
body:
  %inext = add %i, %one
  br head
exit:
  ret %i
}
`)
	e, err := AnalyzeProgram([]*ir.Func{f}, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := e.Oracle(f)
	if err != nil {
		t.Fatal(err)
	}
	one, exit := f.ValueByName("one"), f.BlockByName("exit")
	if oracle.IsLiveIn(one, exit) {
		t.Fatal("unexpected live-in before the edit")
	}
	// Instruction edit: the same precomputation answers, and sees it.
	exit.NewValue(ir.OpAdd, one, one)
	if !oracle.IsLiveIn(one, exit) {
		t.Fatal("oracle should see the new use")
	}
	if got := e.Rebuilds(); got != 0 {
		t.Fatalf("Rebuilds = %d after instruction edit with checker, want 0", got)
	}
	// CFG edit: transparent re-fetch through the engine.
	f.Entry().SplitEdge(0)
	if !oracle.IsLiveIn(one, exit) {
		t.Fatal("oracle should keep answering after the CFG edit")
	}
	if got := e.Rebuilds(); got != 1 {
		t.Fatalf("Rebuilds = %d after CFG edit, want 1", got)
	}
}

// TestEngineSharedBuildSingleFlight checks that concurrent first requests
// for one function share a single Analyze (same returned pointer).
func TestEngineSharedBuildSingleFlight(t *testing.T) {
	f := engineCorpus(t, 1, 31)[0]
	e := NewEngine(EngineConfig{})
	e.Add(f)
	const workers = 8
	results := make([]*Liveness, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			live, err := e.Liveness(f)
			if err != nil {
				t.Error(err)
				return
			}
			results[w] = live
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if results[w] != results[0] {
			t.Fatal("concurrent first requests built distinct analyses")
		}
	}
}
