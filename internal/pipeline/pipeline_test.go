package pipeline_test

import (
	"fmt"
	"testing"

	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/pipeline"
)

// slotCorpus generates n deterministic slot-form functions (the
// pipeline's expected input: construction is its first pass), mixing
// shapes and including irreducible control flow.
func slotCorpus(tb testing.TB, n int, seed int64, irreducible bool) []*ir.Func {
	tb.Helper()
	funcs := make([]*ir.Func, n)
	for i := range funcs {
		c := gen.Default(seed + int64(i)*7919)
		c.TargetBlocks = 10 + (i*13)%30
		c.Irreducible = irreducible && i%3 == 1
		funcs[i] = gen.Generate(fmt.Sprintf("p%02d", i), c)
	}
	return funcs
}

// The acceptance property of the whole PR: the checker-backed pipeline
// completes SSA destruction and the full spill loop — thousands of
// instruction edits interleaved with queries — with ZERO staleness-forced
// rebuilds, on one analysis taken after the single CFG-editing pass. The
// per-pass report must also show the typed edit classes: construct and
// the editing tail touch only InstrEpoch, edge splitting only CFGEpoch.
func TestCheckerPipelineZeroRebuilds(t *testing.T) {
	funcs := slotCorpus(t, 8, 42, true)
	rep, err := pipeline.Run(funcs, pipeline.Config{Backend: "checker", Regs: 4, Verify: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Funcs != len(funcs) || rep.Skipped != 0 {
		t.Fatalf("completed %d funcs (%d skipped), want all %d", rep.Funcs, rep.Skipped, len(funcs))
	}
	if rep.Rebuilds != 0 {
		t.Fatalf("checker pipeline forced %d rebuilds, want 0", rep.Rebuilds)
	}
	if rep.Phis == 0 || rep.Queries == 0 {
		t.Fatalf("workload too trivial to prove anything: %+v", rep)
	}
	if rep.Spills == 0 {
		t.Fatalf("k=4 should force spills on this corpus: %+v", rep)
	}
	byName := map[string]pipeline.PassStats{}
	for _, ps := range rep.Passes {
		byName[ps.Pass] = ps
	}
	if ps := byName["construct"]; ps.CFGEdits != 0 || ps.InstrEdits == 0 {
		t.Fatalf("construct pass edits: %+v (want instruction-only)", ps)
	}
	if ps := byName["split-edges"]; ps.InstrEdits != 0 || ps.CFGEdits == 0 {
		t.Fatalf("split-edges pass edits: %+v (want CFG-only)", ps)
	}
	for _, name := range []string{"destruct", "regalloc"} {
		if ps := byName[name]; ps.CFGEdits != 0 {
			t.Fatalf("%s pass performed CFG edits: %+v", name, ps)
		}
	}
	if byName["destruct"].InstrEdits == 0 || byName["regalloc"].InstrEdits == 0 {
		t.Fatal("editing passes should report instruction edits")
	}
}

// Set-producing backends pay for the same edits: the identical pipeline
// must report staleness-forced rebuilds in both editing passes.
func TestSetBackendPipelineRebuilds(t *testing.T) {
	funcs := slotCorpus(t, 8, 42, true)
	rep, err := pipeline.Run(funcs, pipeline.Config{Backend: "dataflow", Regs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Rebuilds == 0 {
		t.Fatal("set-producing pipeline should have been forced to rebuild")
	}
	for _, ps := range rep.Passes {
		if (ps.Pass == "destruct" || ps.Pass == "regalloc") && ps.Rebuilds == 0 && ps.InstrEdits > 0 {
			t.Fatalf("pass %s edited (%d instr edits) without any rebuild", ps.Pass, ps.InstrEdits)
		}
	}
}

// Every backend must drive the pipeline to the *identical* output
// program: pass decisions are pure functions of liveness answers, and all
// backends answer identically. This is the differential suite's
// query-equivalence property lifted to whole-pass equivalence.
func TestPipelineOutputsAgreeAcrossBackends(t *testing.T) {
	protos := slotCorpus(t, 6, 7, false) // reducible so the loops engine applies
	var want []string
	for _, name := range []string{"checker", "dataflow", "loops", "pervar", "lao", "auto"} {
		funcs := make([]*ir.Func, len(protos))
		for i, p := range protos {
			funcs[i] = ir.Clone(p)
		}
		rep, err := pipeline.Run(funcs, pipeline.Config{Backend: name, Regs: 4, Verify: true})
		if err != nil {
			t.Fatalf("backend %s: %v", name, err)
		}
		if rep.Skipped != 0 {
			t.Fatalf("backend %s skipped %d reducible funcs", name, rep.Skipped)
		}
		got := make([]string, len(funcs))
		for i, f := range funcs {
			got[i] = ir.Print(f)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("backend %s produced a different program for %s:\n--- checker\n%s\n--- %s\n%s",
					name, protos[i].Name, want[i], name, got[i])
			}
		}
	}
}

// The loops backend cannot analyze irreducible control flow: such
// functions are skipped and counted, everything else completes.
func TestPipelineSkipsIrreducibleForLoops(t *testing.T) {
	funcs := slotCorpus(t, 6, 42, true)
	rep, err := pipeline.Run(funcs, pipeline.Config{Backend: "loops", Regs: 4})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Skipped == 0 {
		t.Fatal("corpus contains irreducible functions; loops should skip some")
	}
	if rep.Funcs+rep.Skipped != len(funcs) {
		t.Fatalf("funcs %d + skipped %d != corpus %d", rep.Funcs, rep.Skipped, len(funcs))
	}
	if rep.Funcs == 0 {
		t.Fatal("reducible functions should complete")
	}
}
