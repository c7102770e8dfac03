package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"
	"time"

	"fastliveness"
	"fastliveness/internal/gen"
	"fastliveness/internal/ir"
	"fastliveness/internal/ssa"
)

// The warm-start benchmark: the same whole-program corpus analyzed through
// an empty snapshot store (cold start — every function pays its full
// precompute, then writes the snapshot back) and again through the
// populated store (warm start — every function maps its precomputation
// from disk, validates it, and re-derives only the linear parts). The
// savings column is the fraction of per-function precompute time a warm
// process start no longer pays, 1 - warm/cold; the storeless baseline
// (compute only, no write-back) is reported alongside so the cold row's
// write-back share is visible rather than hidden in the ratio.
//
// Methodology notes, reflected in the JSON "note" field:
//   - Only Engine.Precompute is timed; corpus generation and Engine.Add
//     stay outside the clock.
//   - Each warm rep opens a fresh SnapshotStore handle on the populated
//     directory, modeling a new process (no in-memory snapshot cache
//     carry-over); min-over-reps absorbs scheduler noise.
//   - IR verification is skipped on both sides (Config.SkipVerify): it is
//     input validation, paid identically cold and warm, and including it
//     would only dilute the quantity being measured — the precompute
//     pipeline itself.
//   - GC is pinned back (SetGCPercent 1000, explicit runtime.GC before
//     each timed section) so collections triggered by one mode's
//     allocations don't land in the other mode's timing; cold builds
//     allocate tens of MB of matrices and are otherwise overcharged.

// WarmStartRow is one corpus size's cold-vs-warm measurement.
type WarmStartRow struct {
	Funcs          int     `json:"funcs"`
	Blocks         int     `json:"blocks"`
	BaselineNs     int64   `json:"baseline_ns"` // no store: compute only
	ColdNs         int64   `json:"cold_ns"`     // empty store: compute + write-back
	WarmNs         int64   `json:"warm_ns"`     // populated store: load + re-derive
	ColdPerFn      float64 `json:"cold_ns_per_func"`
	WarmPerFn      float64 `json:"warm_ns_per_func"`
	Savings        float64 `json:"savings"`             // 1 - warm/cold
	SavingsVsBase  float64 `json:"savings_vs_baseline"` // 1 - warm/baseline
	Hits           int64   `json:"snapshot_hits"`
	Misses         int64   `json:"snapshot_misses"`
	StoreBytes     int64   `json:"store_bytes"`
	QueryAllocsPer float64 `json:"warm_query_allocs_per_op"` // steady-state, must be 0
}

// WarmStart is the full report, one row per corpus size.
type WarmStart struct {
	GOMAXPROCS int `json:"gomaxprocs"`
	Reps       int `json:"reps"`
	// GateMinSavings is the savings floor this artifact claims to clear;
	// TestPerfGate enforces max(its own 0.80 floor, this value) per row, so
	// a format generation that raises the bar cannot silently regress to
	// the old one.
	GateMinSavings float64        `json:"gate_min_savings"`
	Note           string         `json:"note"`
	Rows           []WarmStartRow `json:"rows"`
}

// MeasureWarmStart measures each corpus size with min-over-reps timing.
// Parallelism is pinned to 1 and rebuild workers to 0, so each number is
// the serial sum of per-function start-up costs — exactly the quantity the
// snapshot tier is built to cut — and cold-run write-backs happen inline,
// inside the cold timing where they belong.
func MeasureWarmStart(sizes []int, reps int) (*WarmStart, error) {
	if reps < 1 {
		reps = 1
	}
	rep := &WarmStart{
		GOMAXPROCS:     runtime.GOMAXPROCS(0),
		Reps:           reps,
		GateMinSavings: 0.90,
		Note: "per-function precompute at process start: baseline = no store (compute only), cold = empty store " +
			"(compute + snapshot write-back), warm = populated v3 store, fresh handle per rep (header and " +
			"structural section checksums verified; CFG/DFS/dom arrays and the dense R/T arenas adopted zero-copy " +
			"from the mapping, arena scans deferred per the store's default policy; no structural re-derivation); " +
			"savings = 1 - warm/cold, min over reps, Precompute timed alone, verification skipped on both sides, " +
			"GC pinned during timing, parallelism 1 and rebuild workers 0 throughout (timings are the serial " +
			"per-function cost)",
	}
	for _, n := range sizes {
		row, err := warmStartRow(n, reps)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// buildWarmProgram generates the warm-start corpus: deep, loopy functions
// from ~500 to ~8000 blocks, large ones dominating the total and every
// third one irreducible. The precompute this tier skips grows
// quadratically with block count while the restore path stays linear, so
// the population that motivates a persistent cache — the big procedures
// that dominate a real program's analysis time, as they do the paper's
// corpus — is the one measured.
func buildWarmProgram(n int, seed int64) []*ir.Func {
	targets := []int{8192, 2048, 4096, 1024, 6144, 3072, 512, 7168}
	funcs := make([]*ir.Func, n)
	for i := range funcs {
		c := gen.Default(seed + int64(i)*6151)
		c.TargetBlocks = targets[i%len(targets)]
		c.MaxDepth = 9
		c.Irreducible = i%3 == 0
		f := gen.Generate(fmt.Sprintf("w%04d", i), c)
		ssa.Construct(f)
		funcs[i] = f
	}
	return funcs
}

func warmStartRow(nFuncs, reps int) (WarmStartRow, error) {
	funcs := buildWarmProgram(nFuncs, 7001)
	row := WarmStartRow{Funcs: nFuncs}
	for _, f := range funcs {
		row.Blocks += len(f.Blocks)
	}

	run := func(store *fastliveness.SnapshotStore) (*fastliveness.Engine, time.Duration, error) {
		e := fastliveness.NewEngine(fastliveness.EngineConfig{
			Parallelism:   1,
			Config:        fastliveness.Config{SkipVerify: true},
			SnapshotStore: store,
		})
		e.Add(funcs...)
		runtime.GC()
		start := time.Now()
		if err := e.Precompute(); err != nil {
			return nil, 0, err
		}
		return e, time.Since(start), nil
	}

	prevGC := debug.SetGCPercent(1000)
	defer debug.SetGCPercent(prevGC)

	// Baseline: no store at all.
	for r := 0; r < reps; r++ {
		e, d, err := run(nil)
		if err != nil {
			return row, err
		}
		e.Close()
		if r == 0 || d.Nanoseconds() < row.BaselineNs {
			row.BaselineNs = d.Nanoseconds()
		}
	}

	// Cold: a fresh empty store per rep, so every rep pays the full
	// compute + encode + write cost. The last rep's store stays on disk
	// and feeds the warm runs.
	var warmDir string
	for r := 0; r < reps; r++ {
		dir, err := os.MkdirTemp("", "flsnap-bench-*")
		if err != nil {
			return row, err
		}
		store, err := fastliveness.OpenSnapshotStore(dir, 0)
		if err != nil {
			return row, err
		}
		e, d, err := run(store)
		if err != nil {
			return row, err
		}
		if r == 0 || d.Nanoseconds() < row.ColdNs {
			row.ColdNs = d.Nanoseconds()
		}
		if s := e.SnapshotStats(); s.Misses != int64(nFuncs) {
			return row, fmt.Errorf("cold run: %d misses, want %d", s.Misses, nFuncs)
		}
		e.Close()
		if r == reps-1 {
			warmDir = dir
			row.StoreBytes = store.SizeBytes()
		} else {
			os.RemoveAll(dir)
		}
	}
	defer os.RemoveAll(warmDir)

	// Warm: every rep opens the populated store afresh, as a new process
	// would, so nothing survives between reps but the files themselves.
	var warmEngine *fastliveness.Engine
	for r := 0; r < reps; r++ {
		store, err := fastliveness.OpenSnapshotStore(warmDir, 0)
		if err != nil {
			return row, err
		}
		e, d, err := run(store)
		if err != nil {
			return row, err
		}
		if r == 0 || d.Nanoseconds() < row.WarmNs {
			row.WarmNs = d.Nanoseconds()
		}
		stats := e.SnapshotStats()
		if stats.Hits != int64(nFuncs) {
			return row, fmt.Errorf("warm run: %d hits, want %d", stats.Hits, nFuncs)
		}
		row.Hits, row.Misses = stats.Hits, stats.Misses
		if warmEngine != nil {
			warmEngine.Close()
		}
		warmEngine = e
	}
	defer warmEngine.Close()

	row.ColdPerFn = float64(row.ColdNs) / float64(nFuncs)
	row.WarmPerFn = float64(row.WarmNs) / float64(nFuncs)
	row.Savings = 1 - float64(row.WarmNs)/float64(row.ColdNs)
	row.SavingsVsBase = 1 - float64(row.WarmNs)/float64(row.BaselineNs)

	// Steady-state queries against a snapshot-loaded handle must allocate
	// nothing, same as a freshly computed one.
	f := funcs[0]
	live, err := warmEngine.Liveness(f)
	if err != nil {
		return row, err
	}
	var vals []*ir.Value
	f.Values(func(v *ir.Value) {
		if len(vals) < 16 && v.Op.HasResult() {
			vals = append(vals, v)
		}
	})
	sweep := func() {
		for _, v := range vals {
			for _, b := range f.Blocks {
				live.IsLiveIn(v, b)
				live.IsLiveOut(v, b)
			}
		}
	}
	sweep() // warm the scratch buffer
	row.QueryAllocsPer = testing.AllocsPerRun(10, sweep)
	return row, nil
}

// WarmStartSection renders the report as the text table for -table
// warmstart.
func WarmStartSection(rep *WarmStart) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Persistent snapshot tier: cold vs. warm engine start (min over %d reps, parallelism 1)\n",
		rep.Reps)
	sb.WriteString("savings = fraction of per-function precompute a warm start skips (vs. empty-store cold start)\n\n")
	fmt.Fprintf(&sb, "%7s %8s %14s %14s %14s %9s %12s %10s\n",
		"funcs", "blocks", "baseline-ns", "cold-ns", "warm-ns", "savings", "store-bytes", "q-allocs")
	for _, r := range rep.Rows {
		fmt.Fprintf(&sb, "%7d %8d %14d %14d %14d %8.1f%% %12d %10.1f\n",
			r.Funcs, r.Blocks, r.BaselineNs, r.ColdNs, r.WarmNs, r.Savings*100,
			r.StoreBytes, r.QueryAllocsPer)
	}
	return sb.String()
}

// WarmStartJSON emits the report in the BENCH_*.json format.
func WarmStartJSON(rep *WarmStart) (string, error) {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
