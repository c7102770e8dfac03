package bench

import (
	"encoding/json"
	"testing"
	"time"
)

// TestEngineContentionReport runs a tiny contention measurement end to end
// (small corpus, short window) and checks the report's shape: one row per
// querier count, real query traffic, mutation traffic, a plausible
// speedup baseline, and round-trippable JSON. Throughput scaling itself is
// hardware-bound, so it is reported, not asserted.
func TestEngineContentionReport(t *testing.T) {
	window := 60 * time.Millisecond
	if testing.Short() {
		window = 25 * time.Millisecond
	}
	rep := MeasureEngineContention(12, []int{1, 2}, window)
	if len(rep.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(rep.Rows))
	}
	if rep.Funcs != 12 || rep.Blocks == 0 {
		t.Fatalf("corpus shape funcs=%d blocks=%d", rep.Funcs, rep.Blocks)
	}
	for i, r := range rep.Rows {
		if r.Queriers != []int{1, 2}[i] {
			t.Fatalf("row %d queriers = %d", i, r.Queriers)
		}
		if r.Batches == 0 || r.Queries == 0 || r.QueriesPerSec <= 0 {
			t.Fatalf("row %d saw no query traffic: %+v", i, r)
		}
		if r.Edits == 0 {
			t.Fatalf("row %d saw no mutation traffic: %+v", i, r)
		}
	}
	if rep.Rows[0].Speedup != 1.0 {
		t.Fatalf("baseline speedup = %v, want 1.0", rep.Rows[0].Speedup)
	}
	out, err := EngineContentionJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back EngineContention
	if err := json.Unmarshal([]byte(out), &back); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if back.Rows[1].Queries != rep.Rows[1].Queries {
		t.Fatal("JSON round trip lost row data")
	}
	if EngineContentionSection(rep) == "" {
		t.Fatal("empty text section")
	}
}
