package fastliveness

// The arena PR's contract: steady-state IsLiveIn/IsLiveOut/Interfere
// checker queries allocate nothing — not through a Liveness, not through a
// Querier, not through an engine Oracle. These tests pin that at 0
// allocs/op with testing.AllocsPerRun so a regression (a scratch buffer
// that stops being reused, a row view or method value that starts
// escaping) fails loudly instead of showing up as a benchmark drift.

import (
	"testing"

	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/regalloc"
	"fastliveness/internal/ssa"
)

func allocWorkload(t *testing.T) (*ir.Func, []*ir.Value) {
	t.Helper()
	c := gen.Default(987654)
	c.TargetBlocks = 40
	f := gen.Generate("zeroalloc", c)
	ssa.Construct(f)
	var vals []*ir.Value
	f.Values(func(v *ir.Value) {
		if v.Op.HasResult() {
			vals = append(vals, v)
		}
	})
	if len(vals) == 0 {
		t.Fatal("workload has no values")
	}
	return f, vals
}

func TestCheckerQueriesZeroAlloc(t *testing.T) {
	f, vals := allocWorkload(t)
	for _, tc := range []struct {
		name   string
		config Config
	}{
		{"default", Config{}},
		{"sortedT", Config{SortedT: true}},
		{"exact", Config{Strategy: StrategyExact}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			live, err := Analyze(f, tc.config)
			if err != nil {
				t.Fatal(err)
			}
			sweep := func(in, out func(*ir.Value, *ir.Block) bool, interfere func(x, y *ir.Value) bool) func() {
				return func() {
					for i, v := range vals {
						for _, b := range f.Blocks {
							in(v, b)
							out(v, b)
						}
						interfere(v, vals[(i+1)%len(vals)])
					}
				}
			}

			liveSweep := sweep(live.IsLiveIn, live.IsLiveOut, live.Interfere)
			liveSweep() // warm: scratch capacity
			if avg := testing.AllocsPerRun(10, liveSweep); avg != 0 {
				t.Errorf("Liveness steady-state sweep: %v allocs, want 0", avg)
			}

			qr := live.NewQuerier()
			qrSweep := sweep(qr.IsLiveIn, qr.IsLiveOut, qr.Interfere)
			qrSweep()
			if avg := testing.AllocsPerRun(10, qrSweep); avg != 0 {
				t.Errorf("Querier steady-state sweep: %v allocs, want 0", avg)
			}
		})
	}
}

// Checker answers read the def-use chain fresh, so instruction edits need
// no reset of any kind: after each edit — a use added, the use removed
// again, a value created after Analyze — the handle and its Querier must
// answer like a fresh analysis of the edited program.
func TestCheckerQueriesTrackInstructionEdits(t *testing.T) {
	f, vals := allocWorkload(t)
	live, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	qr := live.NewQuerier()

	agree := func(stage string) {
		t.Helper()
		fresh, err := Analyze(f, Config{})
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range vals {
			for _, b := range f.Blocks {
				if got, want := live.IsLiveOut(v, b), fresh.IsLiveOut(v, b); got != want {
					t.Fatalf("%s: IsLiveOut(%s, %s) = %v, fresh analysis says %v", stage, v, b, got, want)
				}
				if got, want := qr.IsLiveIn(v, b), fresh.IsLiveIn(v, b); got != want {
					t.Fatalf("%s: Querier.IsLiveIn(%s, %s) = %v, fresh analysis says %v", stage, v, b, got, want)
				}
			}
		}
	}
	agree("baseline")

	// Extend a live range: a brand-new use of the first value in its own
	// block is always legal.
	v := vals[0]
	added := v.Block.NewValue(ir.OpNeg, v)
	if err := ssa.VerifyStrict(f); err != nil {
		t.Fatal(err)
	}
	agree("after adding a use")

	// Shrink it again.
	v.Block.RemoveValue(added)
	agree("after removing the use")

	// A value created after Analyze is queryable too.
	w := v.Block.NewValue(ir.OpCopy, v)
	vals = append(vals, w)
	agree("after adding a new value")
}

// The register allocator's steady-state query loop rides the same
// zero-allocation contract: one Querier serves every scan, and a rescan of
// an unchanged program — the spill loop's hot path — reuses every buffer.
// Warm-up (first scan: position tables, dominator-path stack, Querier
// scratch) may allocate; rescans may not.
func TestRegallocScanZeroAlloc(t *testing.T) {
	c := gen.HighPressure(24681357)
	c.TargetBlocks = 40
	f := gen.Generate("zeroallocRA", c)
	ssa.Construct(f)
	live, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	qr := live.NewQuerier() // one handle reused across every scan
	k := regalloc.MeasurePressure(f, qr).Max
	a := regalloc.New(f, qr, k)
	if !a.Scan() {
		t.Fatalf("scan failed at k = max pressure %d", k)
	}
	a.Scan() // settle scratch capacities
	if avg := testing.AllocsPerRun(10, func() {
		if !a.Scan() {
			t.Fatal("rescan failed")
		}
	}); avg != 0 {
		t.Errorf("steady-state rescan: %v allocs, want 0", avg)
	}
}

// The telemetry PR's contract: instrumentation does not buy observability
// with hot-path allocations. An engine-served Oracle on a fully
// instrumented engine (tracer attached, metrics live) still answers
// steady-state queries at 0 allocs/op — the per-query cost is one atomic
// counter add, with no time.Now pair and no tracer callback on the query
// path.
func TestInstrumentedOracleZeroAlloc(t *testing.T) {
	f, vals := allocWorkload(t)
	e := NewEngine(EngineConfig{Tracer: NopTracer{}})
	defer e.Close()
	e.Add(f)
	o, err := e.Oracle(f)
	if err != nil {
		t.Fatal(err)
	}
	sweep := func() {
		for i, v := range vals {
			for _, b := range f.Blocks {
				o.IsLiveIn(v, b)
				o.IsLiveOut(v, b)
			}
			o.Interfere(v, vals[(i+1)%len(vals)])
		}
	}
	sweep() // warm: analysis build, Querier scratch
	if avg := testing.AllocsPerRun(10, sweep); avg != 0 {
		t.Errorf("instrumented Oracle steady-state sweep: %v allocs, want 0", avg)
	}
	if m := e.Metrics(); m.Queries == 0 {
		t.Error("instrumented sweep left Queries at 0; the counter should have recorded the traffic")
	}
}
