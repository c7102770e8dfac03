package fastliveness

import (
	"fmt"
	"reflect"
	"testing"

	"fastliveness/internal/ir"
)

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

// invariantMetrics is m without what may differ across shard counts:
// the shard-count echo and the latency samples (their counts stay).
func invariantMetrics(m EngineMetrics) EngineMetrics {
	m.Shards, m.SnapshotGCNs = 0, 0
	for _, h := range []*HistogramSnapshot{&m.BuildNs, &m.BatchNs, &m.SnapshotLoadNs, &m.SnapshotSaveNs} {
		*h = HistogramSnapshot{Count: h.Count}
	}
	return m
}

// TestEngineShardInvariance runs an identical corpus and an identical
// serial edit+query script at shard counts 1, 4 and 16 and demands
// byte-identical observable state: every query answer, each function's
// backend and footprint, Metrics and MemoryBytes must match the unsharded
// engine exactly. Sharding is a contention optimization, never a semantic
// one.
func TestEngineShardInvariance(t *testing.T) {
	type outcome struct {
		fingerprint string
		backends    string // per function: backend and MemoryBytes
		metrics     EngineMetrics
		memory      int
	}
	run := func(t *testing.T, shards int) outcome {
		funcs := engineCorpus(t, 18, 321)
		e, err := AnalyzeProgram(funcs, EngineConfig{Shards: shards, Parallelism: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got := e.Metrics().Shards; got != shards {
			t.Fatalf("Metrics().Shards = %d, configured %d", got, shards)
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
	if base.metrics.Resident != 18 {
		t.Fatalf("Resident = %d with unlimited cache, want 18", base.metrics.Resident)
	}
	for _, shards := range []int{4, 16} {
		got := run(t, shards)
		if got.fingerprint != base.fingerprint {
			t.Errorf("shards=%d: query answers differ from the unsharded engine", shards)
		}
		if got.backends != base.backends {
			t.Errorf("shards=%d: per-function backends/footprints\n%s\nunsharded\n%s", shards, got.backends, base.backends)
		}
		if !reflect.DeepEqual(got.metrics, base.metrics) {
			t.Errorf("shards=%d: Metrics() = %+v, unsharded %+v", shards, got.metrics, base.metrics)
		}
		if got.memory != base.memory {
			t.Errorf("shards=%d: MemoryBytes() = %d, unsharded %d", shards, got.memory, base.memory)
		}
	}
}

// The round-robin shard layout must spread registered functions evenly:
// with S shards and N registered functions every shard owns ⌈N/S⌉ or
// ⌊N/S⌋ handles, so no shard becomes a hot spot by construction.
func TestEngineShardBalance(t *testing.T) {
	funcs := engineCorpus(t, 21, 17)
	e := NewEngine(EngineConfig{Shards: 4})
	e.Add(funcs...)
	counts := make(map[*shard]int)
	for _, f := range funcs {
		h := e.lookup(f)
		if h == nil {
			t.Fatalf("%s: not indexed", f.Name)
		}
		counts[h.shard]++
	}
	if len(counts) != 4 {
		t.Fatalf("functions landed on %d shards, want 4", len(counts))
	}
	for s, n := range counts {
		if n < 5 || n > 6 {
			t.Fatalf("shard %p owns %d of 21 functions, want 5 or 6", s, n)
		}
	}
}
