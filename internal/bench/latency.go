package bench

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"fastliveness"
	"fastliveness/internal/backend"
	"fastliveness/internal/ir"
	"fastliveness/internal/telemetry"
)

// LatencyRow is one backend's per-query latency distribution over the
// recorded SSA-destruction query stream, replayed through an engine
// Oracle with a benign instruction edit interleaved every editEvery
// queries. Each query is timed individually into a telemetry.Histogram,
// so the row reports the tail — where the paper's invalidation asymmetry
// lives: an instruction edit leaves the checker's CFG-only
// precomputation valid but stales every set-producing backend, whose
// inline re-analysis lands on the next query as a latency spike. With
// edits more frequent than 1 in 100 queries, those spikes sit inside
// p99 for the set backends and nowhere at all for the checker.
type LatencyRow struct {
	Name     string  `json:"name"`
	Procs    int     `json:"procs"`
	Queries  int     `json:"queries"`
	Edits    int     `json:"edits"`
	Rebuilds int     `json:"rebuilds"`
	MeanNs   float64 `json:"ns_per_op"`
	P50Ns    int64   `json:"p50_ns"`
	P90Ns    int64   `json:"p90_ns"`
	P99Ns    int64   `json:"p99_ns"`
	P999Ns   int64   `json:"p999_ns"`
}

// LatencyRegistry collects the per-backend replay histograms
// (bench_query_ns_<backend>) so cmd/benchtables -debug-addr can expose
// a live /metrics view of a run in progress.
var LatencyRegistry = telemetry.NewRegistry()

// benignEdit inserts and immediately removes a copy of v — the program
// is unchanged, but the function's instruction epoch advances twice, so
// analyses keyed on it go stale exactly as a real rewrite would.
func benignEdit(v *ir.Value) {
	tmp := v.Block.NewValue(ir.OpCopy, v)
	v.Block.RemoveValue(tmp)
}

// MeasureLatency replays each procedure's recorded destruction query
// stream through a per-backend engine Oracle, timing every query into a
// log-bucketed histogram and performing a benign instruction edit every
// editEvery queries (0 disables editing). Engines run with no rebuild
// pool, so a staled analysis is rebuilt inline on the query that
// observes it — the latency the distribution is meant to capture.
// Verification is disabled for the replay (the corpus is already
// verified) so set-backend rebuild cost is re-analysis, not re-checking.
func MeasureLatency(corpora []*Corpus, editEvery int) ([]LatencyRow, error) {
	type item struct {
		p  Proc
		qs []Query
	}
	var items []item
	for _, c := range corpora {
		for _, p := range c.Procs {
			if qs := RecordQueries(p); len(qs) > 0 {
				items = append(items, item{p, qs})
			}
		}
	}
	var rows []LatencyRow
	for _, name := range backend.Names() {
		h := LatencyRegistry.Histogram("bench_query_ns_"+metricName(name),
			"per-query replay latency, backend "+name)
		row := LatencyRow{Name: name}
		for _, it := range items {
			// A fresh clone per backend: edits below must not accumulate
			// across backends, or later rows would replay a grown function.
			f := ir.Clone(it.p.F)
			valByID := make([]*ir.Value, f.NumValues())
			f.Values(func(v *ir.Value) { valByID[v.ID] = v })
			blockByID := make([]*ir.Block, f.NumBlocks())
			for _, b := range f.Blocks {
				blockByID[b.ID] = b
			}

			e := fastliveness.NewEngine(fastliveness.EngineConfig{
				Config: fastliveness.Config{Backend: name, SkipVerify: true},
			})
			e.Add(f)
			o, err := e.Oracle(f)
			if err != nil {
				return nil, fmt.Errorf("backend %s on %s: %w", name, f.Name, err)
			}
			row.Procs++
			editV := valByID[it.qs[0].V.ID]
			sinceEdit := 0
			for _, q := range it.qs {
				if editEvery > 0 && sinceEdit >= editEvery {
					sinceEdit = 0
					benignEdit(editV)
					row.Edits++
				}
				v, b := valByID[q.V.ID], blockByID[q.B.ID]
				start := time.Now()
				o.IsLiveOut(v, b)
				h.Observe(time.Since(start).Nanoseconds())
				sinceEdit++
			}
			row.Rebuilds += e.Rebuilds()
		}
		s := h.Snapshot()
		row.Queries = int(s.Count)
		row.MeanNs = s.Mean()
		row.P50Ns = s.P50()
		row.P90Ns = s.P90()
		row.P99Ns = s.P99()
		row.P999Ns = s.P999()
		rows = append(rows, row)
	}
	return rows, nil
}

// metricName maps a backend name onto the Prometheus metric-name
// alphabet (defensive: current backend names are already legal).
func metricName(s string) string {
	var sb strings.Builder
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			sb.WriteRune(r)
		default:
			sb.WriteByte('_')
		}
	}
	return sb.String()
}

// LatencyTable renders the per-backend latency distributions.
func LatencyTable(corpora []*Corpus, editEvery int) string {
	rows, err := MeasureLatency(corpora, editEvery)
	if err != nil {
		return "latency table: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString("Per-query latency distribution over the recorded destruction stream,\n")
	fmt.Fprintf(&sb, "one engine per backend, benign instruction edit every %d queries.\n", editEvery)
	sb.WriteString("An instruction edit leaves the checker's CFG-only precomputation valid but\n")
	sb.WriteString("stales the set backends, whose inline re-analysis shows up at the tail (p99).\n\n")
	fmt.Fprintf(&sb, "%-10s %6s | %9s %7s %8s | %10s %8s %8s %8s %9s\n",
		"Backend", "#Proc", "#Queries", "Edits", "Rebuild",
		"MeanNs", "p50", "p90", "p99", "p99.9")
	sb.WriteString(strings.Repeat("-", 104))
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %6d | %9d %7d %8d | %10.1f %8d %8d %8d %9d\n",
			r.Name, r.Procs, r.Queries, r.Edits, r.Rebuilds,
			r.MeanNs, r.P50Ns, r.P90Ns, r.P99Ns, r.P999Ns)
	}
	return sb.String()
}

// LatencyJSON renders the rows machine-readably for BENCH_*.json.
func LatencyJSON(rows []LatencyRow) (string, error) {
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
