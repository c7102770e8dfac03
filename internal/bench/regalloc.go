package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"strings"
	"time"

	"fastliveness"
	"fastliveness/internal/backend"
	"fastliveness/internal/dataflow"
	"fastliveness/internal/ir"
	"fastliveness/internal/regalloc"
)

// RegallocQuery is one oracle query of the register allocator's stream,
// expressed against the pre-allocation function.
type RegallocQuery struct {
	Out bool // IsLiveOut (scan death points) vs IsLiveIn (entry occupancy)
	V   *ir.Value
	B   *ir.Block
}

// RegallocWorkload summarizes what the allocator did over a corpus — the
// shape of the query stream every backend is then timed on.
type RegallocWorkload struct {
	Procs       int     `json:"procs"`
	Queries     int     `json:"queries"`
	LiveIn      int     `json:"live_in_queries"`
	LiveOut     int     `json:"live_out_queries"`
	Spills      int     `json:"spills"`
	Rounds      int     `json:"rounds"`
	AvgPressure float64 `json:"avg_max_pressure"`
	K           int     `json:"k"`
}

// RegallocRow is one backend's measurement on the register-allocation
// workload: AllocNs is the end-to-end cost per procedure of analyzing with
// that backend and running the allocator against it — including the
// re-analyses (Refreshes) set-producing backends need after every spill
// round, the cost the checker's CFG-only precomputation avoids — and
// QueryNs the replay cost per query of the recorded allocator stream.
type RegallocRow struct {
	Name         string  `json:"name"`
	Procs        int     `json:"procs"`
	AllocNs      float64 `json:"ns_per_op"`
	Queries      int     `json:"queries"`
	QueryNs      float64 `json:"query_ns_per_op"`
	Refreshes    int     `json:"refreshes"`
	Invalidation string  `json:"invalidation"`
}

// engineOracle analyzes f with the named backend on a one-function engine
// and returns the engine's self-refreshing oracle: it re-analyzes exactly
// when f's epochs say an edit staled the analysis, and the engine's
// Rebuilds counts those re-analyses. The engine runs no goroutines, so it
// needs no Close.
func engineOracle(name string, f *ir.Func) (*fastliveness.Engine, *fastliveness.Oracle, error) {
	e := fastliveness.NewEngine(fastliveness.EngineConfig{Config: fastliveness.Config{Backend: name}})
	e.Add(f)
	o, err := e.Oracle(f)
	return e, o, err
}

// recordingAllocOracle records the allocator's query stream for replay,
// answering from a self-refreshing data-flow oracle (data-flow sets are
// invalidated by any edit, and the allocator's spill rounds edit between
// scans).
type recordingAllocOracle struct {
	inner   *fastliveness.Oracle
	maxID   int // values with IDs >= maxID are spill artifacts
	queries []RegallocQuery
}

func newRecordingAllocOracle(clone *ir.Func, maxID int) (*recordingAllocOracle, error) {
	_, inner, err := engineOracle("dataflow", clone)
	if err != nil {
		return nil, err
	}
	return &recordingAllocOracle{inner: inner, maxID: maxID}, nil
}

func (o *recordingAllocOracle) IsLiveIn(v *ir.Value, b *ir.Block) bool {
	if v.ID < o.maxID {
		o.queries = append(o.queries, RegallocQuery{Out: false, V: v, B: b})
	}
	return o.inner.IsLiveIn(v, b)
}

func (o *recordingAllocOracle) IsLiveOut(v *ir.Value, b *ir.Block) bool {
	if v.ID < o.maxID {
		o.queries = append(o.queries, RegallocQuery{Out: true, V: v, B: b})
	}
	return o.inner.IsLiveOut(v, b)
}

// recordRegalloc runs the allocator on a clone of p.F with a recording
// data-flow oracle and returns the query stream mapped back onto p.F, the
// register budget that succeeded (k doubled past ErrTooFewRegisters so
// every backend later replays the identical workload), and the per-proc
// stats. Queries about spill-inserted values are dropped; like the
// destruction recorder, they are a small fraction of the stream.
func recordRegalloc(p Proc, k int) ([]RegallocQuery, int, regalloc.Stats, error) {
	kEff := k
	for {
		clone := ir.Clone(p.F)
		o, err := newRecordingAllocOracle(clone, p.F.NumValues())
		if err != nil {
			return nil, 0, regalloc.Stats{}, err
		}
		alloc, err := regalloc.Run(clone, o, kEff)
		if errors.Is(err, regalloc.ErrTooFewRegisters) {
			kEff *= 2
			continue
		}
		if err != nil {
			return nil, 0, regalloc.Stats{}, fmt.Errorf("recording regalloc on %s: %w", p.F.Name, err)
		}
		valByID := make([]*ir.Value, p.F.NumValues())
		p.F.Values(func(v *ir.Value) { valByID[v.ID] = v })
		blockByID := make([]*ir.Block, p.F.NumBlocks())
		for _, b := range p.F.Blocks {
			blockByID[b.ID] = b
		}
		out := make([]RegallocQuery, len(o.queries))
		for i, q := range o.queries {
			out[i] = RegallocQuery{Out: q.Out, V: valByID[q.V.ID], B: blockByID[q.B.ID]}
		}
		return out, kEff, alloc.Stats, nil
	}
}

// MeasureRegalloc times every registered backend on the register-allocation
// workload: the end-to-end allocator run with that backend as the oracle
// (set-producing backends re-analyze after every spill round; the checker
// never does), and the recorded query-stream replay, Table-2-style. The
// recording pass — one per procedure, shared by every backend — fixes the
// register budget and the stream, so all rows describe identical work.
func MeasureRegalloc(corpora []*Corpus, k int) ([]RegallocRow, RegallocWorkload, error) {
	type acc struct {
		row       RegallocRow
		b         backend.Backend
		allocNs   float64
		queryNs   float64
		refreshes int
	}
	accs := make([]*acc, 0, len(backend.Names()))
	for _, name := range backend.Names() {
		b, err := backend.Get(name)
		if err != nil {
			return nil, RegallocWorkload{}, err
		}
		accs = append(accs, &acc{row: RegallocRow{Name: name}, b: b})
	}
	var wl RegallocWorkload
	wl.K = k
	var pressureSum int
	for _, c := range corpora {
		for _, p := range c.Procs {
			f := p.F
			prep, err := backend.Prepare(f)
			if err != nil {
				return nil, wl, fmt.Errorf("preparing %s: %w", f.Name, err)
			}
			queries, kEff, stats, err := recordRegalloc(p, k)
			if err != nil {
				return nil, wl, err
			}
			wl.Procs++
			wl.Queries += stats.Queries()
			wl.LiveIn += stats.LiveInQueries
			wl.LiveOut += stats.LiveOutQueries
			wl.Spills += stats.Spills
			wl.Rounds += stats.Rounds
			pressureSum += regalloc.MeasurePressure(f, dataflow.Analyze(f)).Max

			for _, a := range accs {
				res, err := a.b.Analyze(f, prep)
				if err != nil {
					return nil, wl, fmt.Errorf("backend %s on %s: %w", a.row.Name, f.Name, err)
				}
				a.row.Procs++
				a.row.Invalidation = res.Invalidation().String()

				// End-to-end allocator run against this backend. Run
				// mutates its input, so it gets a fresh clone outside the
				// timed region and is timed single-shot; the per-corpus
				// average smooths the noise. The engine oracle re-analyzes
				// exactly when the clone's epochs say the spill edits staled
				// the sets — never for the checker — and the engine's
				// rebuild count is the Refresh column.
				clone := ir.Clone(f)
				start := time.Now()
				e, oracle, err := engineOracle(a.row.Name, clone)
				if err != nil {
					return nil, wl, fmt.Errorf("backend %s on clone of %s: %w", a.row.Name, f.Name, err)
				}
				if _, err := regalloc.Run(clone, oracle, kEff); err != nil {
					return nil, wl, fmt.Errorf("backend %s allocating %s (k=%d): %w", a.row.Name, f.Name, kEff, err)
				}
				a.allocNs += float64(time.Since(start).Nanoseconds())
				a.refreshes += e.Rebuilds()

				if len(queries) == 0 {
					continue
				}
				stream := timeOp(perProcBudget, func() {
					for _, q := range queries {
						if q.Out {
							res.IsLiveOut(q.V, q.B)
						} else {
							res.IsLiveIn(q.V, q.B)
						}
					}
				})
				a.row.Queries += len(queries)
				a.queryNs += stream
			}
		}
	}
	if wl.Procs > 0 {
		wl.AvgPressure = float64(pressureSum) / float64(wl.Procs)
	}
	rows := make([]RegallocRow, 0, len(accs))
	for _, a := range accs {
		if a.row.Procs > 0 {
			a.row.AllocNs = a.allocNs / float64(a.row.Procs)
		}
		if a.row.Queries > 0 {
			a.row.QueryNs = a.queryNs / float64(a.row.Queries)
		}
		a.row.Refreshes = a.refreshes
		rows = append(rows, a.row)
	}
	return rows, wl, nil
}

// RegallocTable renders the per-backend comparison on the allocator
// workload — the second client pass after SSA destruction, measured on its
// genuine query stream with query counts reported.
func RegallocTable(corpora []*Corpus, k int) string {
	rows, wl, err := MeasureRegalloc(corpora, k)
	if err != nil {
		return "regalloc table: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString("Per-backend comparison on the register-allocation workload (dominance-order\n")
	sb.WriteString("scan allocator, k = " + fmt.Sprint(k) + "; budget doubled per proc until allocatable).\n")
	fmt.Fprintf(&sb, "Workload: %d procs, %d queries (%d live-in, %d live-out), %d spills over %d rounds,\n",
		wl.Procs, wl.Queries, wl.LiveIn, wl.LiveOut, wl.Spills, wl.Rounds)
	fmt.Fprintf(&sb, "avg max pressure %.2f.\n", wl.AvgPressure)
	sb.WriteString("AllocNs = analyze + allocate per procedure, including the automatic\n")
	sb.WriteString("epoch-driven re-analyses (Refresh column) the spill edits force on\n")
	sb.WriteString("set-producing backends; QueryNs = recorded-stream replay per query.\n\n")
	fmt.Fprintf(&sb, "%-10s %7s | %12s %8s | %10s %9s | %-12s\n",
		"Backend", "#Proc", "AllocNs", "Refresh", "#Queries", "QueryNs", "Invalidated")
	sb.WriteString(strings.Repeat("-", 89))
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %7d | %12.1f %8d | %10d %9.1f | %-12s\n",
			r.Name, r.Procs, r.AllocNs, r.Refreshes, r.Queries, r.QueryNs, r.Invalidation)
	}
	return sb.String()
}

// RegallocJSON renders the rows as machine-readable JSON, the format of
// the BENCH_*.json performance trajectory (ns_per_op here is the
// end-to-end allocation cost per procedure).
func RegallocJSON(rows []RegallocRow) (string, error) {
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
