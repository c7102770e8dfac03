package bench

import (
	"math"
	"strings"
	"testing"

	"fastliveness/internal/gen"
	"fastliveness/internal/ssa"
)

// TestTable1Calibration guards the generator against drifting away from the
// paper's corpus shape. Tolerances are loose — we reproduce distributions,
// not exact numbers — but tight enough to catch regressions.
func TestTable1Calibration(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus generation in -short mode")
	}
	perBench := 50
	within := func(got, want, tol float64) bool {
		return math.Abs(got-want) <= tol
	}
	var totBlocks, totVars float64
	var sumAvgErr float64
	n := 0
	for i := range gen.SPEC2000 {
		spec := &gen.SPEC2000[i]
		c := BuildCorpus(spec, perBench)
		s := Shape(c)
		// Per-benchmark: average block count within 45% (a 50-proc sample
		// of a heavy-tailed distribution is noisy), %≤32 within 18 points.
		if !within(s.Blocks.Mean, spec.AvgBlocks, 0.45*spec.AvgBlocks) {
			t.Errorf("%s: avg blocks %.1f, paper %.1f", spec.Name, s.Blocks.Mean, spec.AvgBlocks)
		}
		if !within(s.PctLE32, spec.PctLE32, 18) {
			t.Errorf("%s: %%≤32 = %.1f, paper %.1f", spec.Name, s.PctLE32, spec.PctLE32)
		}
		// Uses-per-variable CDF within 9 points at every knot.
		for k := 0; k < 4; k++ {
			if !within(s.UsePct[k], spec.UsePct[k], 9) {
				t.Errorf("%s: uses %%≤%d = %.1f, paper %.1f", spec.Name, k+1, s.UsePct[k], spec.UsePct[k])
			}
		}
		sumAvgErr += s.Blocks.Mean - spec.AvgBlocks
		totBlocks += float64(s.Blocks.Sum)
		totVars += float64(s.NumVars)
		n++
		// Back-edge fraction in a plausible band around the paper's 3.6%.
		frac := 100 * float64(s.BackEdges) / float64(s.EdgesTotal)
		if frac < 1.5 || frac > 7 {
			t.Errorf("%s: back-edge fraction %.1f%%, paper ~3.6%%", spec.Name, frac)
		}
	}
	if totVars == 0 || totBlocks == 0 {
		t.Fatal("empty corpus")
	}
}

func TestTable1AndEdgeStatsRender(t *testing.T) {
	corpora := BuildAll(8)
	t1 := Table1(corpora)
	for _, want := range []string{"164.gzip", "(paper)", "Total", "%<=32", "MaxUses"} {
		if !strings.Contains(t1, want) {
			t.Fatalf("Table 1 output missing %q:\n%s", want, t1)
		}
	}
	es := EdgeStats(corpora)
	for _, want := range []string{"back edges", "irreducible", "4823"} {
		if !strings.Contains(es, want) {
			t.Fatalf("EdgeStats output missing %q:\n%s", want, es)
		}
	}
}

func TestRecordQueriesAndMeasure(t *testing.T) {
	c := BuildCorpus(gen.SpecByName("164.gzip"), 12)
	totalQ := 0
	for _, p := range c.Procs {
		qs := RecordQueries(p)
		totalQ += len(qs)
		for _, q := range qs {
			if q.V == nil || q.B == nil {
				t.Fatal("query with nil value/block")
			}
			// The query's value and block must belong to the original
			// function.
			if q.V.Block.Func != p.F {
				t.Fatal("query value not from the original function")
			}
		}
		// Recording twice gives the identical stream (determinism).
		qs2 := RecordQueries(p)
		if len(qs2) != len(qs) {
			t.Fatal("query recording not deterministic")
		}
		for i := range qs {
			if qs[i] != qs2[i] {
				t.Fatal("query stream differs between recordings")
			}
		}
	}
	if totalQ == 0 {
		t.Fatal("no queries recorded across the corpus")
	}

	row := MeasureCorpus(c)
	if row.Procs != 12 || row.Queries != totalQ {
		t.Fatalf("row mismatch: %+v (want %d queries)", row, totalQ)
	}
	if row.NativePre <= 0 || row.NewPre <= 0 || row.NativeQ <= 0 || row.NewQ <= 0 {
		t.Fatalf("non-positive timings: %+v", row)
	}
	pre, q, both := row.Speedups()
	if pre <= 0 || q <= 0 || both <= 0 {
		t.Fatalf("non-positive speedups: %f %f %f", pre, q, both)
	}
	// The paper's shape: precomputation much faster, queries slower.
	if pre < 1 {
		t.Errorf("expected precompute speedup > 1, got %.2f", pre)
	}
	if q > 1 {
		t.Errorf("expected query slowdown (speedup < 1), got %.2f", q)
	}
}

func TestTable2Renders(t *testing.T) {
	corpora := []*Corpus{BuildCorpus(gen.SpecByName("256.bzip2"), 6)}
	out := Table2(corpora)
	for _, want := range []string{"256.bzip2", "(paper)", "Total", "Spdup", "Both"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 2 output missing %q:\n%s", want, out)
		}
	}
}

func TestAuxReports(t *testing.T) {
	corpora := []*Corpus{BuildCorpus(gen.SpecByName("181.mcf"), 5)}
	if out := FullPrecompStats(corpora); !strings.Contains(out, "fill") {
		t.Fatalf("FullPrecompStats output unexpected:\n%s", out)
	}
	if out := DestructionStats(corpora); !strings.Contains(out, "q/var") {
		t.Fatalf("DestructionStats output unexpected:\n%s", out)
	}
	if out := ScalingSeries([]int{32, 64}); !strings.Contains(out, "checker-bytes") {
		t.Fatalf("ScalingSeries output unexpected:\n%s", out)
	}
}

// The corpus must survive strictness verification end to end.
func TestCorpusIsStrictSSA(t *testing.T) {
	c := BuildCorpus(gen.SpecByName("197.parser"), 15)
	for _, p := range c.Procs {
		if err := ssa.VerifyStrict(p.F); err != nil {
			t.Fatalf("%s: %v", p.F.Name, err)
		}
	}
}

func TestMeasureRegalloc(t *testing.T) {
	c := BuildCorpus(gen.SpecByName("181.mcf"), 6)
	rows, wl, err := MeasureRegalloc([]*Corpus{c}, 6)
	if err != nil {
		t.Fatal(err)
	}
	if wl.Procs != 6 || wl.Queries == 0 || wl.LiveIn == 0 || wl.LiveOut == 0 {
		t.Fatalf("degenerate workload: %+v", wl)
	}
	names := map[string]bool{}
	for _, r := range rows {
		names[r.Name] = true
		if r.Procs == 0 {
			t.Fatalf("backend %s measured nothing", r.Name)
		}
		if r.Procs > 0 && (r.AllocNs <= 0 || r.Queries == 0 || r.QueryNs <= 0) {
			t.Fatalf("backend %s has empty timings: %+v", r.Name, r)
		}
		if r.Invalidation == "cfg-changes" && r.Refreshes != 0 {
			t.Fatalf("backend %s survives instruction edits but refreshed %d times", r.Name, r.Refreshes)
		}
		if r.Invalidation == "any-edit" && wl.Spills > 0 && r.Refreshes == 0 {
			t.Fatalf("backend %s is edit-invalidated and the workload spilled, but never refreshed", r.Name)
		}
	}
	for _, want := range []string{"checker", "dataflow", "pervar"} {
		if !names[want] {
			t.Fatalf("rows missing backend %s: %v", want, names)
		}
	}
	out, err := RegallocJSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name"`, `"ns_per_op"`, `"query_ns_per_op"`, `"refreshes"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %s:\n%s", want, out)
		}
	}
	table := RegallocTable([]*Corpus{c}, 6)
	for _, want := range []string{"register-allocation workload", "AllocNs", "Refresh", "#Queries"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}

// TestMeasurePipelineShape covers the end-to-end pipeline table: every
// backend appears, identical decision counters across backends (identical
// answers drive identical passes), the checker completes the whole
// instruction-editing tail with zero rebuilds while edit-invalidated
// backends pay at least one per edited proc, and both emitters render.
func TestMeasurePipelineShape(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end pipeline sweep in -short mode")
	}
	rows, err := MeasurePipeline(1, 8)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]PipelineRow{}
	for _, r := range rows {
		names[r.Name] = r
		if r.Procs == 0 {
			t.Fatalf("backend %s measured nothing", r.Name)
		}
		if r.Procs > 0 && (r.NsPerProc <= 0 || r.Queries == 0) {
			t.Fatalf("backend %s has empty measurements: %+v", r.Name, r)
		}
		if len(r.Passes) != 4 {
			t.Fatalf("backend %s reports %d passes, want 4", r.Name, len(r.Passes))
		}
		for _, ps := range r.Passes {
			if ps.Pass == "split-edges" && ps.InstrEdits != 0 {
				t.Fatalf("backend %s: edge splitting reported instruction edits: %+v", r.Name, ps)
			}
			if ps.Pass != "split-edges" && ps.CFGEdits != 0 {
				t.Fatalf("backend %s: pass %s reported CFG edits: %+v", r.Name, ps.Pass, ps)
			}
		}
	}
	chk, ok := names["checker"]
	if !ok {
		t.Fatalf("rows missing the checker: %v", rows)
	}
	if chk.Rebuilds != 0 {
		t.Fatalf("checker pipeline rebuilt %d times, want 0", chk.Rebuilds)
	}
	df, ok := names["dataflow"]
	if !ok {
		t.Fatalf("rows missing dataflow: %v", rows)
	}
	if df.Rebuilds == 0 && (df.Copies > 0 || df.Spills > 0) {
		t.Fatal("dataflow pipeline edited but never rebuilt")
	}
	// Identical clones + identical answers => identical decisions.
	if chk.Queries != df.Queries || chk.Spills != df.Spills || chk.Copies != df.Copies ||
		chk.CFGEdits != df.CFGEdits || chk.InstrEdits != df.InstrEdits {
		t.Fatalf("checker and dataflow disagree on decision counters:\nchecker:  %+v\ndataflow: %+v", chk, df)
	}

	out, err := PipelineJSON(rows)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"name"`, `"ns_per_op"`, `"rebuilds"`, `"cfg_edits"`, `"instr_edits"`, `"passes"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("JSON missing %s:\n%s", want, out)
		}
	}
	table := PipelineTable(1, 8)
	for _, want := range []string{"pass pipeline", "Rebuild", "#Queries", "Per-pass rebuild/query breakdown"} {
		if !strings.Contains(table, want) {
			t.Fatalf("table missing %q:\n%s", want, table)
		}
	}
}
