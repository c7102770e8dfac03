package bench

import (
	"encoding/json"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastliveness"
	"fastliveness/internal/ir"
)

// The engine contention benchmark: a mutating whole-program corpus is
// hammered by W querier goroutines issuing per-function query batches
// while one mutator goroutine edits random functions through Engine.Edit
// at a fixed pace. Queriers take the engine mutex only to fetch an
// analysis, never to answer from one, and a querier that finds a
// function stale after a CFG edit rebuilds it on the query path — the
// scaling of batch-query throughput with W is the number this table
// reports.
//
// Batches are capped below the engine's internal fan-out threshold so a
// single batch never recruits extra goroutines: all measured parallelism
// comes from the concurrent queriers, not from intra-batch sharding.

// contentionBatchCap keeps batches below the engine's internal
// batch-parallel threshold (256).
const contentionBatchCap = 240

// mutatorPace is the fixed delay between mutations: an edit-heavy but
// not pathological workload (~1k edits/sec), identical at every worker
// count so rows are comparable.
const mutatorPace = time.Millisecond

// cfgEditPeriod makes every Nth mutation a CFG edit (stales the
// checker); the rest are instruction edits (the checker survives them).
const cfgEditPeriod = 8

// EngineRow is one contention measurement at a fixed querier count.
type EngineRow struct {
	Queriers      int     `json:"queriers"`
	Batches       int64   `json:"batches"`
	Queries       int64   `json:"queries"`
	WallNs        int64   `json:"wall_ns"`
	QueriesPerSec float64 `json:"queries_per_sec"`
	Speedup       float64 `json:"speedup"`
	Edits         int64   `json:"edits"`
	QueryRebuilds int     `json:"query_rebuilds"`
}

// EngineContention is the full contention report: the corpus and engine
// shape, plus one row per querier count. Speedups are relative to the
// first row.
type EngineContention struct {
	Funcs      int         `json:"funcs"`
	Blocks     int         `json:"blocks"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Note       string      `json:"note"`
	Rows       []EngineRow `json:"rows"`
}

// MeasureEngineContention runs the contention benchmark: for each entry
// in queriers it builds a fresh clone of the n-function corpus, stands up
// an engine, precomputes, then runs
// that many querier goroutines against one paced mutator for the window
// and reports batch-query throughput. window <= 0 selects a default.
func MeasureEngineContention(nFuncs int, queriers []int, window time.Duration) *EngineContention {
	if window <= 0 {
		window = 300 * time.Millisecond
	}
	master := BuildProgram(nFuncs, 2008)
	blocks := 0
	for _, f := range master {
		blocks += len(f.Blocks)
	}
	rep := &EngineContention{
		Funcs:      nFuncs,
		Blocks:     blocks,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Note: fmt.Sprintf("wall-clock throughput scaling saturates at the hardware's core count (GOMAXPROCS=%d)",
			runtime.GOMAXPROCS(0)),
	}
	for _, w := range queriers {
		rep.Rows = append(rep.Rows, contentionRow(master, w, window))
	}
	for i := range rep.Rows {
		rep.Rows[i].Speedup = rep.Rows[i].QueriesPerSec / rep.Rows[0].QueriesPerSec
	}
	return rep
}

// contentionRow measures one querier count over a fresh clone of the
// corpus, so earlier rows' mutations never skew later ones.
func contentionRow(master []*ir.Func, queriers int, window time.Duration) EngineRow {
	funcs := make([]*ir.Func, len(master))
	for i, f := range master {
		funcs[i] = ir.Clone(f)
	}
	e, err := fastliveness.AnalyzeProgram(funcs, fastliveness.EngineConfig{})
	if err != nil {
		panic(err)
	}
	defer e.Close()

	// Per-function query batches and mutation anchors, collected before
	// the run; mutations only add values and edges, so the pointers stay
	// valid throughout.
	batches := make([][]fastliveness.Query, len(funcs))
	anchors := make([]*ir.Value, len(funcs))
	for i, f := range funcs {
		qs := programQueries(f)
		if len(qs) > contentionBatchCap {
			qs = qs[:contentionBatchCap]
		}
		batches[i] = qs
		f.Values(func(v *ir.Value) {
			if anchors[i] == nil && v.Op.HasResult() {
				anchors[i] = v
			}
		})
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	var nBatches, nQueries, nEdits atomic.Int64

	// One paced mutator: mostly instruction edits (the checker survives
	// them), every cfgEditPeriod-th a CFG edit (forces re-analysis on the
	// next query of that function).
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := lcg(97)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			case <-time.After(mutatorPace):
			}
			idx := int(rng() % uint64(len(funcs)))
			f := funcs[idx]
			e.Edit(f, func() {
				if i%cfgEditPeriod == cfgEditPeriod-1 {
					for _, b := range f.Blocks {
						if len(b.Succs) > 0 {
							b.SplitEdge(0)
							break
						}
					}
				} else if v := anchors[idx]; v != nil {
					v.Block.NewValue(ir.OpNeg, v)
				}
			})
			nEdits.Add(1)
		}
	}()

	start := time.Now()
	for q := 0; q < queriers; q++ {
		wg.Add(1)
		go func(q int) {
			defer wg.Done()
			rng := lcg(uint64(1000 + q))
			for {
				select {
				case <-stop:
					return
				default:
				}
				idx := int(rng() % uint64(len(funcs)))
				if _, err := e.BatchIsLiveIn(funcs[idx], batches[idx]); err != nil {
					panic(err)
				}
				nBatches.Add(1)
				nQueries.Add(int64(len(batches[idx])))
			}
		}(q)
	}
	time.Sleep(window)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)

	return EngineRow{
		Queriers:      queriers,
		Batches:       nBatches.Load(),
		Queries:       nQueries.Load(),
		WallNs:        elapsed.Nanoseconds(),
		QueriesPerSec: float64(nQueries.Load()) / elapsed.Seconds(),
		Edits:         nEdits.Load(),
		QueryRebuilds: e.Rebuilds(),
	}
}

// lcg returns a tiny deterministic generator (64-bit LCG) — enough to
// spread goroutines over the corpus without math/rand's lock.
func lcg(seed uint64) func() uint64 {
	state := seed*2862933555777941757 + 3037000493
	return func() uint64 {
		state = state*2862933555777941757 + 3037000493
		return state >> 1
	}
}

// EngineContentionSection renders the report as the text table appended
// to -table engine output.
func EngineContentionSection(rep *EngineContention) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Engine contention: %d queriers vs. one mutator over %d functions (%d blocks)\n",
		len(rep.Rows), rep.Funcs, rep.Blocks)
	fmt.Fprintf(&sb, "GOMAXPROCS=%d; %s.\n\n",
		rep.GOMAXPROCS,
		"batch-query throughput by concurrent querier count")
	fmt.Fprintf(&sb, "%9s %12s %14s %9s %7s %9s\n",
		"queriers", "batches", "queries/sec", "speedup", "edits", "q-rebuild")
	for _, r := range rep.Rows {
		fmt.Fprintf(&sb, "%9d %12d %14.0f %9.2f %7d %9d\n",
			r.Queriers, r.Batches, r.QueriesPerSec, r.Speedup, r.Edits,
			r.QueryRebuilds)
	}
	return sb.String()
}

// EngineContentionJSON emits the report in the BENCH_*.json format.
func EngineContentionJSON(rep *EngineContention) (string, error) {
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
