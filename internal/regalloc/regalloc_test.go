package regalloc_test

import (
	"errors"
	"testing"

	"fastliveness"
	"fastliveness/internal/backend/difftest"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/regalloc"
	"fastliveness/internal/ssa"
)

// corpusSize satisfies the acceptance criterion: the verifier and the
// semantic cross-check run over ≥ 120 random functions mixing structured
// (reducible and irreducible, sparse and pressure-biased) and
// graph-synthesized shapes.
const corpusSize = 132

func corpus(t *testing.T) []*ir.Func {
	t.Helper()
	n := corpusSize
	if testing.Short() {
		n = 24
	}
	return difftest.Corpus(n, 20260801)
}

func analyze(t *testing.T, f *ir.Func) *fastliveness.Liveness {
	t.Helper()
	live, err := fastliveness.Analyze(f, fastliveness.Config{})
	if err != nil {
		t.Fatalf("%s: %v", f.Name, err)
	}
	return live
}

// Spill-free allocation at k = max pressure: the dominance-order scan must
// achieve the chordal bound — never more registers than the widest program
// point — and leave the program untouched.
func TestSpillFreeMeetsPressureBound(t *testing.T) {
	for _, f := range corpus(t) {
		live := analyze(t, f)
		p := regalloc.MeasurePressure(f, live)
		before := f.NumValues()
		alloc, err := regalloc.Run(f, live, p.Max)
		if err != nil {
			t.Fatalf("%s: k = max pressure %d: %v", f.Name, p.Max, err)
		}
		if alloc.Stats.Spills != 0 {
			t.Fatalf("%s: spilled %d values at k = max pressure %d", f.Name, alloc.Stats.Spills, p.Max)
		}
		if f.NumValues() != before {
			t.Fatalf("%s: spill-free run added values", f.Name)
		}
		if alloc.NumRegs > p.Max {
			t.Fatalf("%s: used %d registers, max pressure %d", f.Name, alloc.NumRegs, p.Max)
		}
		if err := regalloc.VerifyAllocation(f, alloc); err != nil {
			t.Fatal(err)
		}
		if alloc.Stats.Queries() == 0 {
			t.Fatalf("%s: allocator issued no oracle queries", f.Name)
		}
	}
}

// Constrained budgets force the greedy spill loop. With the checker as
// oracle no Refresh hook is needed — spill code never touches the CFG, so
// the paper's precomputation stays valid across rounds — and the result
// must still verify and preserve semantics through destruction.
func TestSpillingAllocatesValidly(t *testing.T) {
	spilled, tooFew := 0, 0
	funcs := corpus(t)
	for i, f := range funcs {
		live := analyze(t, f)
		p := regalloc.MeasurePressure(f, live)
		maxPhis := 0
		for _, b := range f.Blocks {
			if n := len(b.Phis()); n > maxPhis {
				maxPhis = n
			}
		}
		k := p.Max/2 + 1
		if min := maxPhis + 2; k < min {
			k = min
		}
		if k >= p.Max {
			continue // too narrow to force spills; covered by the test above
		}
		ref := ir.Clone(f)
		alloc, err := regalloc.Run(f, live, k)
		if errors.Is(err, regalloc.ErrTooFewRegisters) {
			tooFew++
			continue
		}
		if err != nil {
			t.Fatalf("%s: k=%d (max pressure %d): %v", f.Name, k, p.Max, err)
		}
		if alloc.Stats.Spills == 0 {
			t.Fatalf("%s: k=%d below max pressure %d but nothing spilled", f.Name, k, p.Max)
		}
		spilled++
		if err := regalloc.VerifyAllocation(f, alloc); err != nil {
			t.Fatal(err)
		}
		if err := regalloc.CrossCheck(ref, f, 6, 1<<18, int64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if spilled == 0 {
		t.Fatal("corpus produced no successfully spilled allocation; test proves nothing")
	}
	if tooFew > spilled/4 {
		t.Fatalf("%d of %d constrained runs gave ErrTooFewRegisters — spiller too weak", tooFew, spilled+tooFew)
	}
}

// The semantic cross-check also holds for spill-free allocations (Run must
// not perturb the program at all on the happy path).
func TestSpillFreeCrossCheck(t *testing.T) {
	funcs := corpus(t)
	for i, f := range funcs {
		if i%3 != 0 {
			continue // a sample suffices; the full sweep runs above
		}
		ref := ir.Clone(f)
		live := analyze(t, f)
		p := regalloc.MeasurePressure(f, live)
		if _, err := regalloc.Run(f, live, p.Max); err != nil {
			t.Fatalf("%s: %v", f.Name, err)
		}
		if err := regalloc.CrossCheck(ref, f, 4, 1<<18, int64(2000+i)); err != nil {
			t.Fatal(err)
		}
	}
}

// engineOracle serves f through a one-function engine with the named
// backend; the engine's Rebuilds counts the oracle's re-analyses.
func engineOracle(t *testing.T, name string, f *ir.Func) (*fastliveness.Engine, *fastliveness.Oracle) {
	t.Helper()
	e := fastliveness.NewEngine(fastliveness.EngineConfig{Config: fastliveness.Config{Backend: name}})
	e.Add(f)
	oracle, err := e.Oracle(f)
	if err != nil {
		t.Fatal(err)
	}
	return e, oracle
}

// A set-producing oracle is invalidated by the allocator's own spill
// edits; served through an Engine Oracle it re-analyzes automatically —
// exactly once per edited-then-queried round, observable via Rebuilds —
// and the result must agree with the checker-driven allocation on
// validity.
func TestSetOracleSelfRefreshes(t *testing.T) {
	c := gen.HighPressure(7)
	c.TargetBlocks = 28
	f := gen.Generate("refresh", c)
	ssa.Construct(f)
	ref := ir.Clone(f)

	e, oracle := engineOracle(t, "dataflow", f)
	p := regalloc.MeasurePressure(f, oracle)
	k := p.Max/2 + 1
	if k < 4 {
		k = 4
	}
	alloc, err := regalloc.Run(f, oracle, k)
	if err != nil {
		t.Fatalf("k=%d (max pressure %d): %v", k, p.Max, err)
	}
	if alloc.Stats.Spills == 0 {
		t.Fatalf("k=%d below max pressure %d but nothing spilled", k, p.Max)
	}
	if e.Rebuilds() == 0 {
		t.Fatal("spill edits should have forced the set-producing oracle to rebuild")
	}
	if err := regalloc.VerifyAllocation(f, alloc); err != nil {
		t.Fatal(err)
	}
	if err := regalloc.CrossCheck(ref, f, 8, 1<<18, 99); err != nil {
		t.Fatal(err)
	}
}

// The checker-backed oracle must survive the same spill workload with
// zero rebuilds — the paper's headline property, now asserted through the
// epoch machinery rather than by convention.
func TestCheckerOracleZeroRebuilds(t *testing.T) {
	c := gen.HighPressure(7)
	c.TargetBlocks = 28
	f := gen.Generate("norebuild", c)
	ssa.Construct(f)

	e, oracle := engineOracle(t, "checker", f)
	p := regalloc.MeasurePressure(f, oracle)
	k := p.Max/2 + 1
	if k < 4 {
		k = 4
	}
	alloc, err := regalloc.Run(f, oracle, k)
	if err != nil {
		t.Fatalf("k=%d (max pressure %d): %v", k, p.Max, err)
	}
	if alloc.Stats.Spills == 0 {
		t.Fatalf("k=%d below max pressure %d but nothing spilled", k, p.Max)
	}
	if got := e.Rebuilds(); got != 0 {
		t.Fatalf("checker oracle rebuilt %d times across the spill loop, want 0", got)
	}
	if err := regalloc.VerifyAllocation(f, alloc); err != nil {
		t.Fatal(err)
	}
}

// Pressure profiles must agree across oracles — the checker-driven walk
// and the ground-truth sets describe the same program.
func TestMeasurePressureMatchesGroundTruth(t *testing.T) {
	for _, f := range corpus(t) {
		live := analyze(t, f)
		got := regalloc.MeasurePressure(f, live)
		want := regalloc.MeasurePressure(f, dataflow.Analyze(f))
		if got.Max != want.Max {
			t.Fatalf("%s: checker-driven max pressure %d, ground truth %d", f.Name, got.Max, want.Max)
		}
		for i := range want.PerBlock {
			if got.PerBlock[i] != want.PerBlock[i] {
				t.Fatalf("%s: block %s pressure %d, ground truth %d",
					f.Name, f.Blocks[i], got.PerBlock[i], want.PerBlock[i])
			}
		}
		if got.Queries == 0 {
			t.Fatalf("%s: pressure walk issued no queries", f.Name)
		}
	}
}

// The pressure-biased generator mode must actually raise pressure: the
// whole point of the Barany-style bias is a corpus that stresses the
// allocator, and a silent regression here would hollow out every test
// that relies on it.
func TestHighPressureModeRaisesPressure(t *testing.T) {
	lo, hi := 0, 0
	for seed := int64(0); seed < 6; seed++ {
		base := gen.Generate("lo", gen.Default(seed))
		ssa.Construct(base)
		lo += regalloc.MeasurePressure(base, dataflow.Analyze(base)).Max

		dense := gen.Generate("hi", gen.HighPressure(seed))
		ssa.Construct(dense)
		hi += regalloc.MeasurePressure(dense, dataflow.Analyze(dense)).Max
	}
	if hi <= lo {
		t.Fatalf("high-pressure corpus max-pressure sum %d not above default %d", hi, lo)
	}
}

// Querier (the concurrent handle) satisfies the Oracle shape too and must
// drive the allocator to the same assignment as the owning Liveness.
func TestQuerierOracleMatchesLiveness(t *testing.T) {
	c := gen.HighPressure(11)
	c.TargetBlocks = 20
	f := gen.Generate("qr", c)
	ssa.Construct(f)
	live := analyze(t, f)
	p := regalloc.MeasurePressure(f, live)
	a1, err := regalloc.Run(f, live, p.Max)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := regalloc.Run(f, live.NewQuerier(), p.Max)
	if err != nil {
		t.Fatal(err)
	}
	for id := range a1.Reg {
		if a1.Reg[id] != a2.Reg[id] {
			t.Fatalf("value ID %d: Liveness oracle assigned r%d, Querier oracle r%d", id, a1.Reg[id], a2.Reg[id])
		}
	}
}
