package fastliveness

// The query contract: steady-state IsLiveIn/IsLiveOut/Interfere checker
// queries allocate nothing — not through a Liveness, not through an engine
// Oracle, at any use count. These tests pin that at 0 allocs/op with
// testing.AllocsPerRun so a regression (a use chunk, row view or method
// value that starts escaping) fails loudly instead of showing up as a
// benchmark drift.

import (
	"fmt"
	"strings"
	"testing"

	"fastliveness/internal/backend"
	"fastliveness/internal/dataflow"
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
			if avg := testing.AllocsPerRun(10, liveSweep); avg != 0 {
				t.Errorf("Liveness steady-state sweep: %v allocs, want 0", avg)
			}
		})
	}
}

// Checker answers read the def-use chain fresh, so instruction edits need
// no reset of any kind: after each edit — a use added, the use removed
// again, a value created after Analyze — the handle must answer like a
// fresh analysis of the edited program.
func TestCheckerQueriesTrackInstructionEdits(t *testing.T) {
	f, vals := allocWorkload(t)
	live, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
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
				if got, want := live.IsLiveIn(v, b), fresh.IsLiveIn(v, b); got != want {
					t.Fatalf("%s: IsLiveIn(%s, %s) = %v, fresh analysis says %v", stage, v, b, got, want)
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
// zero-allocation contract: one Liveness serves every scan, and a rescan of
// an unchanged program — the spill loop's hot path — reuses every buffer.
// Warm-up (first scan: position tables, dominator-path stack) may
// allocate; rescans may not.
func TestRegallocScanZeroAlloc(t *testing.T) {
	c := gen.HighPressure(24681357)
	c.TargetBlocks = 40
	f := gen.Generate("zeroallocRA", c)
	ssa.Construct(f)
	live, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	k := regalloc.MeasurePressure(f, live).Max
	a := regalloc.New(f, live, k)
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
	sweep() // warm: analysis build
	if avg := testing.AllocsPerRun(10, sweep); avg != 0 {
		t.Errorf("instrumented Oracle steady-state sweep: %v allocs, want 0", avg)
	}
	if m := e.Metrics(); m.Queries == 0 {
		t.Error("instrumented sweep left Queries at 0; the counter should have recorded the traffic")
	}
}

// chunkFunc builds a function whose value %v has exactly uses uses: all
// but the last sit in its own block, and the last sits after a loop, so
// only the last use — in the last chunk a checker query translates — makes
// %v live anywhere, live-out at its defining block included.
func chunkFunc(t *testing.T, uses int) (*ir.Func, *ir.Value) {
	t.Helper()
	var src strings.Builder
	src.WriteString("func @chunk(%n) {\nentry:\n  %v = add %n, %n\n")
	for i := 0; i < uses-1; i++ {
		fmt.Fprintf(&src, "  %%u%d = neg %%v\n", i)
	}
	src.WriteString("  br head\nhead:\n  %c = cmplt %n, %n\n  if %c -> body, exit\n" +
		"body:\n  br head\nexit:\n  %w = neg %v\n  ret %w\n}\n")
	f := ir.MustParse(src.String())
	var v *ir.Value
	f.Values(func(x *ir.Value) {
		if x.Name == "v" {
			v = x
		}
	})
	if got := v.NumUses(); got != uses {
		t.Fatalf("%%v has %d uses, want %d", got, uses)
	}
	if last := v.Uses()[uses-1].Block(); last.Kind != ir.BlockRet {
		t.Fatalf("last use of %%v sits in %s, want the exit block", last)
	}
	return f, v
}

// A checker query asks the checker once per backend.UseChunk uses; the
// answer must not depend on where the chunk boundaries fall, and a value
// with more uses than one chunk holds must still query at 0 allocs/op,
// through a Liveness, through an Oracle and in a batch.
func TestCheckerQueriesAcrossUseChunks(t *testing.T) {
	for _, uses := range []int{backend.UseChunk - 1, backend.UseChunk, backend.UseChunk + 1, 2*backend.UseChunk + 1} {
		t.Run(fmt.Sprintf("uses=%d", uses), func(t *testing.T) {
			f, v := chunkFunc(t, uses)
			live, err := Analyze(f, Config{})
			if err != nil {
				t.Fatal(err)
			}
			truth := dataflow.Analyze(f)
			for _, b := range f.Blocks {
				if got, want := live.IsLiveIn(v, b), truth.IsLiveIn(v, b); got != want {
					t.Errorf("IsLiveIn(%%v, %s) = %v, dataflow says %v", b, got, want)
				}
				if got, want := live.IsLiveOut(v, b), truth.IsLiveOut(v, b); got != want {
					t.Errorf("IsLiveOut(%%v, %s) = %v, dataflow says %v", b, got, want)
				}
			}
			if !live.IsLiveOut(v, v.Block) {
				t.Errorf("%%v must be live-out at its defining block through its last use")
			}

			e := NewEngine(EngineConfig{})
			defer e.Close()
			e.Add(f)
			o, err := e.Oracle(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, h := range []struct {
				name    string
				in, out func(*ir.Value, *ir.Block) bool
			}{{"Liveness", live.IsLiveIn, live.IsLiveOut}, {"Oracle", o.IsLiveIn, o.IsLiveOut}} {
				sweep := func() {
					for _, b := range f.Blocks {
						h.in(v, b)
						h.out(v, b)
					}
				}
				if avg := testing.AllocsPerRun(10, sweep); avg != 0 {
					t.Errorf("%s sweep: %v allocs, want 0", h.name, avg)
				}
			}
			var qs []Query
			for _, b := range f.Blocks {
				qs = append(qs, Query{V: v, B: b})
			}
			if avg := testing.AllocsPerRun(10, func() { e.BatchIsLiveOut(f, qs) }); avg > 1 {
				t.Errorf("batch of %d queries: %v allocs, want only the result slice", len(qs), avg)
			}
		})
	}
}
