package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"fastliveness/internal/backend"
)

// BackendRow is one backend's measurement over a corpus: the paper-style
// engine comparison (§6.2) generalized from two engines to every backend in
// the registry. PreNs is the average analysis cost per procedure with the
// shared CFG preparation (verify, graph, DFS, dominator tree) excluded for
// every backend alike — the same accounting as Table 2's precompute column —
// QueryNs the average cost per SSA-destruction query (the Table 2
// workload), Bytes the average materialized-set footprint per procedure.
type BackendRow struct {
	Name    string  `json:"name"`
	Procs   int     `json:"procs"`
	PreNs   float64 `json:"ns_per_op"`
	Queries int     `json:"queries"`
	QueryNs float64 `json:"query_ns_per_op"`
	Bytes   int     `json:"bytes"`
	// Invalidation reports what edits invalidate this backend's results:
	// "cfg-changes" for the checker, "any-edit" for the set engines.
	Invalidation string `json:"invalidation"`
}

// MeasureBackends times every registered backend over the corpora:
// analysis per procedure, the recorded destruction query stream, and set
// memory. The per-procedure setup — CFG preparation and the destruction
// query recording — runs once per procedure and is shared by every
// backend, both to keep the measurement fair (each row times exactly the
// engine, never the prep) and to keep the full-corpus run from repeating
// the expensive recording per backend.
func MeasureBackends(corpora []*Corpus) ([]BackendRow, error) {
	type acc struct {
		row            BackendRow
		b              backend.Backend
		preNs, queryNs float64
		bytes          int
	}
	accs := make([]*acc, 0, len(backend.Names()))
	for _, name := range backend.Names() {
		b, err := backend.Get(name)
		if err != nil {
			return nil, err
		}
		accs = append(accs, &acc{row: BackendRow{Name: name}, b: b})
	}
	for _, c := range corpora {
		for _, p := range c.Procs {
			f := p.F
			prep, err := backend.Prepare(f)
			if err != nil {
				return nil, fmt.Errorf("preparing %s: %w", f.Name, err)
			}
			queries := RecordQueries(p)
			for _, a := range accs {
				res, err := a.b.Analyze(f, prep)
				if err != nil {
					return nil, fmt.Errorf("backend %s on %s: %w", a.row.Name, f.Name, err)
				}
				a.row.Procs++
				a.bytes += res.MemoryBytes()
				a.row.Invalidation = res.Invalidation().String()
				a.preNs += timeOp(perProcBudget, func() {
					if _, err := a.b.Analyze(f, prep); err != nil {
						panic(err)
					}
				})
				if len(queries) == 0 {
					continue
				}
				stream := timeOp(perProcBudget, func() {
					for _, q := range queries {
						res.IsLiveOut(q.V, q.B)
					}
				})
				a.row.Queries += len(queries)
				a.queryNs += stream
			}
		}
	}
	rows := make([]BackendRow, 0, len(accs))
	for _, a := range accs {
		if a.row.Procs > 0 {
			a.row.PreNs = a.preNs / float64(a.row.Procs)
			a.row.Bytes = a.bytes / a.row.Procs
		}
		if a.row.Queries > 0 {
			a.row.QueryNs = a.queryNs / float64(a.row.Queries)
		}
		rows = append(rows, a.row)
	}
	return rows, nil
}

// BackendTable renders the per-backend comparison in the style of the
// paper's engine tables: every registered backend on the same corpus and
// the same destruction query stream.
func BackendTable(corpora []*Corpus) string {
	rows, err := MeasureBackends(corpora)
	if err != nil {
		return "backend table: " + err.Error()
	}
	var sb strings.Builder
	sb.WriteString("Per-backend comparison over the corpus (§6.2 generalized to the registry)\n")
	sb.WriteString("PreNs = analysis per procedure, shared CFG prep excluded for all backends;\n")
	sb.WriteString("QueryNs = per destruction query; Bytes = materialized sets per procedure.\n\n")
	fmt.Fprintf(&sb, "%-10s %7s | %12s %10s %9s | %10s %-12s\n",
		"Backend", "#Proc", "PreNs", "#Queries", "QueryNs", "Bytes", "Invalidated")
	sb.WriteString(strings.Repeat("-", 89))
	sb.WriteByte('\n')
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %7d | %12.1f %10d %9.1f | %10d %-12s\n",
			r.Name, r.Procs, r.PreNs, r.Queries, r.QueryNs, r.Bytes, r.Invalidation)
	}
	return sb.String()
}

// BackendJSON renders the rows as machine-readable JSON (one object per
// backend with name/ns_per_op/bytes keys), the format of the repository's
// BENCH_*.json performance trajectory.
func BackendJSON(rows []BackendRow) (string, error) {
	out, err := json.MarshalIndent(rows, "", "  ")
	if err != nil {
		return "", err
	}
	return string(out) + "\n", nil
}
