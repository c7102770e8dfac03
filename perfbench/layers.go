package main

import (
	"fmt"
	"math"
	"os"
)

// layerMetrics lists every per-layer metric a traced run reports, with its
// unit. A workload that does not exercise a layer reports 0 for it, which
// is itself the predicted non-effect (no snapshot traffic on compile or
// serve, no regalloc on serve or restart).
var layerMetrics = []struct{ name, unit string }{
	// compile: the pass chain's self times and work counts.
	{"ssa.construct_ns", "ns"},
	{"destruct.split_ns", "ns"},
	{"destruct.self_ns", "ns"},
	{"destruct.copies", "count"},
	{"regalloc.self_ns", "ns"},
	{"regalloc.spills", "count"},
	{"compile.top2_share", "ratio"},
	// engine: queries, builds and edits as the engine served them.
	{"engine.queries", "count"},
	{"engine.query_ns", "ns"},
	{"engine.oracle_ns", "ns"},
	{"engine.builds", "count"},
	{"engine.build_ns", "ns"},
	{"engine.warm_build_ns", "ns"},
	{"engine.rebuilds", "count"},
	{"engine.edit_ns", "ns"},
	{"engine.edits_instr", "count"},
	{"engine.edits_cfg", "count"},
	{"engine.first_sweep_ns", "ns"},
	{"engine.resident_mb", "MiB"},
	// the layers of one engine build, replayed call by call.
	{"ir.verify_ns", "ns"},
	{"ir.verify_warm_ns", "ns"},
	{"cfg.graph_ns", "ns"},
	{"cfg.dfs_ns", "ns"},
	{"dom.tree_ns", "ns"},
	{"backend.prepare_ns", "ns"},
	{"core.precompute_ns", "ns"},
	// the layers of one oracle query, replayed loop by loop.
	{"engine.stale_ns", "ns"},
	{"backend.use_nodes_ns", "ns"},
	{"core.is_live_ns", "ns"},
	// the snapshot tier: write path (cold) and read path (warm).
	{"snapshot.probe_ns", "ns"},
	{"snapshot.capture_ns", "ns"},
	{"snapshot.encode_ns", "ns"},
	{"snapshot.save_ns", "ns"},
	{"snapshot.stores", "count"},
	{"snapshot.store_mb", "MiB"},
	{"snapshot.load_ns", "ns"},
	{"snapshot.fingerprint_ns", "ns"},
	{"snapshot.open_ns", "ns"},
	{"snapshot.restore_ns", "ns"},
	{"snapshot.hits", "count"},
	{"snapshot.section_scans", "count"},
	{"snapshot.section_skips", "count"},
	{"snapshot.decoded_cache_hits", "count"},
	// the paper's Table 2 split: checker vs LAO, precompute and queries.
	{"paper.checker_precompute_ns", "ns"},
	{"paper.lao_precompute_ns", "ns"},
	{"paper.checker_query_ns", "ns"},
	{"paper.lao_query_ns", "ns"},
	{"paper.precompute_speedup", "ratio"},
	{"paper.query_speedup", "ratio"},
	// reconciliation of phase self-times against the traced total.
	{"trace.total_ns", "ns"},
	{"trace.phase_sum_ns", "ns"},
	{"trace.unexplained", "ratio"},
	{"trace.reconciled", "bool"},
	{"trace.overhead", "ratio"},
	// correctness of the traced run.
	{"check.wrong_answers", "count"},
	{"check.error_rate", "ratio"},
}

// setLayerDefaults reports every per-layer metric as 0 until the workload
// measures it.
func setLayerDefaults(r *report) {
	for _, m := range layerMetrics {
		r.set(m.name, m.unit, 0)
	}
}

// setReconcile reports how well the phase self-times account for the
// traced total, against the workload's stated bound, and the tracing
// overhead: the traced time of the workload's unit of work over its
// untraced time.
func setReconcile(r *report, total, phases, bound, traced, untraced float64) {
	unexplained := math.Abs(total-phases) / total
	r.set("trace.total_ns", "ns", total)
	r.set("trace.phase_sum_ns", "ns", phases)
	r.set("trace.unexplained", "ratio", unexplained)
	ok := 0.0
	if unexplained <= bound {
		ok = 1
	} else {
		fmt.Fprintf(os.Stderr, "perfbench: phases explain %.0f of %.0f traced ns (bound %.2f)\n", phases, total, bound)
	}
	r.set("trace.reconciled", "bool", ok)
	r.set("trace.overhead", "ratio", traced/untraced-1)
}
