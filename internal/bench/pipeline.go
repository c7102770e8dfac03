package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"fastliveness/internal/backend"
	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/pipeline"
)

// PipelineRow is one backend's end-to-end measurement of the full pass
// pipeline (construct → split-edges → destruct → regalloc over an
// engine): wall time per procedure, the staleness-forced re-analyses the
// editing passes caused, and the per-pass breakdown. Every backend runs
// on identical slot-form clones, so the rows differ only in the engine —
// the checker-vs-set-backend invalidation asymmetry, measured end to end
// instead of asserted.
type PipelineRow struct {
	Name       string               `json:"name"`
	Procs      int                  `json:"procs"`
	NsPerProc  float64              `json:"ns_per_op"`
	Rebuilds   int                  `json:"rebuilds"`
	Queries    int                  `json:"queries"`
	CFGEdits   uint64               `json:"cfg_edits"`
	InstrEdits uint64               `json:"instr_edits"`
	Spills     int                  `json:"spills"`
	Copies     int                  `json:"copies"`
	Regs       int                  `json:"regs"`
	Passes     []pipeline.PassStats `json:"passes"`
}

// pipelineProtos generates the slot-form corpus the pipeline rows share:
// up to limit procedures per SPEC2000 benchmark, *before* SSA
// construction — constructing is the pipeline's own first pass.
func pipelineProtos(limit int) []*ir.Func {
	var protos []*ir.Func
	for i := range gen.SPEC2000 {
		spec := &gen.SPEC2000[i]
		n := spec.Procs
		if limit > 0 && limit < n {
			n = limit
		}
		for j := 0; j < n; j++ {
			protos = append(protos, spec.GenerateProc(j))
		}
	}
	return protos
}

// MeasurePipeline runs the full pipeline once per registered backend over
// identical clones of the slot-form corpus (limit procedures per
// benchmark) with base register budget k.
func MeasurePipeline(limit, k int) ([]PipelineRow, error) {
	protos := pipelineProtos(limit)
	var rows []PipelineRow
	for _, name := range backend.Names() {
		funcs := make([]*ir.Func, len(protos))
		for i, p := range protos {
			funcs[i] = ir.Clone(p)
		}
		start := time.Now()
		rep, err := pipeline.Run(funcs, pipeline.Config{Backend: name, Regs: k})
		if err != nil {
			return nil, fmt.Errorf("pipeline with backend %s: %w", name, err)
		}
		elapsed := time.Since(start).Nanoseconds()
		row := PipelineRow{
			Name:     name,
			Procs:    rep.Funcs,
			Rebuilds: rep.Rebuilds,
			Queries:  rep.Queries,
			Spills:   rep.Spills,
			Copies:   rep.Copies,
			Regs:     rep.Regs,
			Passes:   rep.Passes,
		}
		for _, ps := range rep.Passes {
			row.CFGEdits += ps.CFGEdits
			row.InstrEdits += ps.InstrEdits
		}
		if rep.Funcs > 0 {
			row.NsPerProc = float64(elapsed) / float64(rep.Funcs)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// PipelineTable renders the per-backend pipeline comparison with a
// per-pass breakdown.
func PipelineTable(limit, k int) string {
	rows, err := MeasurePipeline(limit, k)
	if err != nil {
		return "pipeline table: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString("End-to-end pass pipeline (construct -> split-edges -> destruct -> regalloc)\n")
	sb.WriteString("per backend over identical slot-form clones, one engine per run, base k = " + fmt.Sprint(k) + ".\n")
	sb.WriteString("Rebuild = engine re-analyses forced by stale edit epochs. Edge splitting is\n")
	sb.WriteString("the pipeline's only CFG edit and runs before any analysis, so the checker's\n")
	sb.WriteString("CFG-only precomputation serves destruction and the whole spill loop with 0\n")
	sb.WriteString("rebuilds; set-producing backends re-analyze per edit-then-query.\n\n")
	fmt.Fprintf(&sb, "%-10s %7s | %12s %8s | %10s | %6s %8s | %7s %7s\n",
		"Backend", "#Proc", "Ns/proc", "Rebuild", "#Queries", "dCFG", "dInstr", "Copies", "Spills")
	sb.WriteString(strings.Repeat("-", 97))
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %7d | %12.1f %8d | %10d | %6d %8d | %7d %7d\n",
			r.Name, r.Procs, r.NsPerProc, r.Rebuilds, r.Queries,
			r.CFGEdits, r.InstrEdits, r.Copies, r.Spills)
	}
	sb.WriteString("\nPer-pass rebuild/query breakdown:\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, "  %-10s", r.Name)
		for _, ps := range r.Passes {
			fmt.Fprintf(&sb, "  %s %d/%d", ps.Pass, ps.Rebuilds, ps.Queries)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// PipelineJSON renders the rows machine-readably, the format of the
// BENCH_*.json performance trajectory (ns_per_op is the end-to-end
// pipeline cost per procedure).
func PipelineJSON(rows []PipelineRow) (string, error) {
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
