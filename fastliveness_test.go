package fastliveness

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fastliveness/internal/core"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/lao"
	"fastliveness/internal/pervar"
	"fastliveness/internal/snapshot"
	"fastliveness/internal/ssa"
)

// engine is the common query surface all four liveness implementations
// share for the agreement tests.
type engine struct {
	name    string
	liveIn  func(*ir.Value, *ir.Block) bool
	liveOut func(*ir.Value, *ir.Block) bool
}

func buildEngines(t *testing.T, f *ir.Func) []engine {
	t.Helper()
	var engines []engine

	for _, cfgVariant := range []struct {
		name string
		c    Config
	}{
		{"checker/propagate", Config{}},
		{"checker/exact", Config{Strategy: StrategyExact}},
	} {
		live, err := Analyze(f, cfgVariant.c)
		if err != nil {
			t.Fatalf("%s: %v", cfgVariant.name, err)
		}
		engines = append(engines, engine{cfgVariant.name, live.IsLiveIn, live.IsLiveOut})
	}

	df := dataflow.Analyze(f)
	engines = append(engines, engine{"dataflow", df.IsLiveIn, df.IsLiveOut})

	la := lao.Analyze(f, lao.Options{})
	engines = append(engines, engine{"lao", la.IsLiveIn, la.IsLiveOut})

	pv := pervar.Analyze(f)
	engines = append(engines, engine{"pervar", pv.IsLiveIn, pv.IsLiveOut})
	return engines
}

// TestAllEnginesAgree is the repository's flagship invariant: the paper's
// checker (in two configurations), the bit-vector data-flow baseline, the
// LAO-style native baseline and the Appel–Palsberg per-variable engine
// answer every (variable, block) liveness question identically, on
// hundreds of generated SSA programs including irreducible ones.
func TestAllEnginesAgree(t *testing.T) {
	for trial := 0; trial < 120; trial++ {
		c := gen.Default(int64(trial)*913 + 7)
		c.TargetBlocks = 4 + trial%80
		c.Irreducible = trial%6 == 5
		f := gen.Generate("t", c)
		ssa.Construct(f)
		if err := ssa.VerifyStrict(f); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		engines := buildEngines(t, f)
		ref := engines[len(engines)-1]
		f.Values(func(v *ir.Value) {
			if !v.Op.HasResult() {
				return
			}
			for _, b := range f.Blocks {
				wantIn := ref.liveIn(v, b)
				wantOut := ref.liveOut(v, b)
				for _, e := range engines {
					if got := e.liveIn(v, b); got != wantIn {
						t.Fatalf("trial %d: %s: IsLiveIn(%s, %s) = %v, %s says %v",
							trial, e.name, v, b, got, ref.name, wantIn)
					}
					if got := e.liveOut(v, b); got != wantOut {
						t.Fatalf("trial %d: %s: IsLiveOut(%s, %s) = %v, %s says %v",
							trial, e.name, v, b, got, ref.name, wantOut)
					}
				}
			}
		})
	}
}

// The headline robustness property, end to end: after Analyze, insert new
// instructions and variables (CFG untouched) and keep querying the same
// Liveness — answers must track a freshly computed data-flow analysis.
func TestPrecomputationSurvivesProgramEdits(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	c := gen.Default(4242)
	c.TargetBlocks = 40
	f := gen.Generate("t", c)
	ssa.Construct(f)
	live, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}

	check := func(stage string) {
		df := dataflow.Analyze(f)
		f.Values(func(v *ir.Value) {
			if !v.Op.HasResult() {
				return
			}
			for _, b := range f.Blocks {
				if live.IsLiveIn(v, b) != df.IsLiveIn(v, b) {
					t.Fatalf("%s: IsLiveIn(%s, %s) stale", stage, v, b)
				}
				if live.IsLiveOut(v, b) != df.IsLiveOut(v, b) {
					t.Fatalf("%s: IsLiveOut(%s, %s) stale", stage, v, b)
				}
			}
		})
	}
	check("baseline")

	// Edit 1: add brand-new variables (copies of existing ones) in random
	// blocks.
	var results []*ir.Value
	f.Values(func(v *ir.Value) {
		if v.Op.HasResult() {
			results = append(results, v)
		}
	})
	for i := 0; i < 10; i++ {
		src := results[rng.Intn(len(results))]
		// Append to src's own block: trivially dominated by the source.
		src.Block.NewValue(ir.OpCopy, src)
	}
	if err := ssa.VerifyStrict(f); err != nil {
		t.Fatal(err)
	}
	check("after adding variables")

	// Edit 2: add new uses of existing variables (extending live ranges).
	for i := 0; i < 10; i++ {
		v := results[rng.Intn(len(results))]
		v.Block.NewValue(ir.OpNeg, v)
	}
	if err := ssa.VerifyStrict(f); err != nil {
		t.Fatal(err)
	}
	check("after adding uses")

	// Edit 3: remove some of the added uses again.
	var removable []*ir.Value
	f.Values(func(v *ir.Value) {
		if v.Op == ir.OpNeg && v.NumUses() == 0 {
			removable = append(removable, v)
		}
	})
	for _, v := range removable {
		v.Block.RemoveValue(v)
	}
	check("after removing uses")
}

// Goroutines share one Liveness per backend — the checker, a checker
// restored from a warm snapshot store, dataflow and pervar — and every
// IsLiveIn, IsLiveOut, Interfere and LiveIn answer must match one computed
// up front. A query writes nothing shared (LiveIn's lazily built sets sit
// behind a mutex), which the race detector checks in CI.
func TestConcurrentQueriers(t *testing.T) {
	mk := func() *ir.Func {
		c := gen.Default(321)
		c.TargetBlocks = 50
		f := gen.Generate("t", c)
		ssa.Construct(f)
		return f
	}
	analyzed := func(backend string) func(t *testing.T) (*ir.Func, *Liveness) {
		return func(t *testing.T) (*ir.Func, *Liveness) {
			f := mk()
			live, err := Analyze(f, Config{Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			return f, live
		}
	}
	restored := func(t *testing.T) (*ir.Func, *Liveness) {
		ss, err := OpenSnapshotStore(t.TempDir(), 0)
		if err != nil {
			t.Fatal(err)
		}
		cold, err := AnalyzeProgram([]*ir.Func{mk()}, EngineConfig{SnapshotStore: ss})
		if err != nil {
			t.Fatal(err)
		}
		cold.Close()
		f := mk()
		warm, err := AnalyzeProgram([]*ir.Func{f}, EngineConfig{SnapshotStore: ss})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(warm.Close)
		if s := warm.SnapshotStats(); s.Hits != 1 {
			t.Fatalf("second engine did not restore from the store: %+v", s)
		}
		live, err := warm.Liveness(f)
		if err != nil {
			t.Fatal(err)
		}
		return f, live
	}
	for _, tc := range []struct {
		name string
		open func(t *testing.T) (*ir.Func, *Liveness)
	}{
		{"checker", analyzed("checker")},
		{"checker/snapshot", restored},
		{"dataflow", analyzed("dataflow")},
		{"pervar", analyzed("pervar")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, live := tc.open(t)
			queryConcurrently(t, f, live)
		})
	}
}

// sortedIDs returns the IDs of vs in ascending order.
func sortedIDs(vs []*ir.Value) []int {
	ids := make([]int, len(vs))
	for i, v := range vs {
		ids[i] = v.ID
	}
	slices.Sort(ids)
	return ids
}

// queryConcurrently runs IsLiveIn, IsLiveOut, Interfere and LiveIn on live
// from several goroutines and checks every answer against the data-flow
// ground truth.
func queryConcurrently(t *testing.T, f *ir.Func, live *Liveness) {
	t.Helper()
	truth := dataflow.Analyze(f)
	ref, err := Analyze(f, Config{Backend: "dataflow"})
	if err != nil {
		t.Fatal(err)
	}
	var vars []*ir.Value
	f.Values(func(v *ir.Value) {
		if v.Op.HasResult() {
			vars = append(vars, v)
		}
	})
	liveIn := make([][]int, len(f.Blocks))
	for i, b := range f.Blocks {
		liveIn[i] = truth.LiveInIDs(b)
	}

	const workers = 8
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			for i := 0; i < 1000; i++ {
				v := vars[(i*7+w)%len(vars)]
				x := vars[(i*11+3*w)%len(vars)]
				bi := (i*13 + w) % len(f.Blocks)
				b := f.Blocks[bi]
				if live.IsLiveIn(v, b) != truth.IsLiveIn(v, b) {
					errs <- fmt.Errorf("worker %d: IsLiveIn(%s,%s) wrong", w, v, b)
					return
				}
				if live.IsLiveOut(v, b) != truth.IsLiveOut(v, b) {
					errs <- fmt.Errorf("worker %d: IsLiveOut(%s,%s) wrong", w, v, b)
					return
				}
				if live.Interfere(v, x) != ref.Interfere(v, x) {
					errs <- fmt.Errorf("worker %d: Interfere(%s,%s) wrong", w, v, x)
					return
				}
				if i%16 == 0 {
					if got := sortedIDs(live.LiveIn(b)); !slices.Equal(got, liveIn[bi]) {
						errs <- fmt.Errorf("worker %d: LiveIn(%s) = %v, want %v", w, b, got, liveIn[bi])
						return
					}
				}
			}
			errs <- nil
		}(w)
	}
	// Wait for every worker, so none outlives the subtest.
	for w := 0; w < workers; w++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

func TestAnalyzeRejectsUnreachable(t *testing.T) {
	f := ir.NewFunc("u")
	b0 := f.NewBlock(ir.BlockRet)
	island := f.NewBlock(ir.BlockRet)
	_ = b0
	_ = island
	if _, err := Analyze(f, Config{}); err == nil {
		t.Fatal("Analyze should reject unreachable blocks")
	}
}

func TestAnalyzeRejectsMalformed(t *testing.T) {
	f := ir.NewFunc("m")
	f.NewBlock(ir.BlockPlain) // plain block without successor
	if _, err := Analyze(f, Config{}); err == nil {
		t.Fatal("Analyze should run ir.Verify")
	}
}

func TestFacadeBasics(t *testing.T) {
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
	live, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !live.Reducible() {
		t.Fatal("loop CFG should be reducible")
	}
	if live.MemoryBytes() <= 0 {
		t.Fatal("memory accounting broken")
	}
	if live.Func() != f {
		t.Fatal("Func accessor broken")
	}
	n := f.ValueByName("n")
	body := f.BlockByName("body")
	exit := f.BlockByName("exit")
	if !live.IsLiveIn(n, body) || live.IsLiveIn(n, exit) {
		t.Fatal("basic queries wrong")
	}
	// Set enumeration helpers agree with single queries.
	for _, b := range f.Blocks {
		for _, v := range live.LiveIn(b) {
			if !live.IsLiveIn(v, b) {
				t.Fatal("LiveIn enumeration inconsistent")
			}
		}
		for _, v := range live.LiveOut(b) {
			if !live.IsLiveOut(v, b) {
				t.Fatal("LiveOut enumeration inconsistent")
			}
		}
	}
	in := live.LiveIn(body)
	// n, one, i are live into body.
	if len(in) != 3 {
		t.Fatalf("live-in(body) = %v, want 3 values", in)
	}
}

// The zero Config and the zero core.Options are the paper's configuration:
// the §5.2 propagate strategy, whose snapshots carry flag word 0.
func TestZeroConfigIsPaperConfiguration(t *testing.T) {
	if s := (core.Options{}).Strategy; s != core.StrategyPropagate {
		t.Fatalf("core.Options{} strategy = %v, want propagate", s)
	}
	if s := (Config{}).Strategy; s != StrategyPropagate {
		t.Fatalf("Config{} strategy = %v, want propagate", s)
	}
	if f := snapshot.FlagsFor(core.Options{}); f != 0 {
		t.Fatalf("FlagsFor(core.Options{}) = %#x, want 0", f)
	}
}
