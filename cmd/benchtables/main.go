// Command benchtables regenerates every table and figure of the paper's
// evaluation section (§6) from the calibrated synthetic corpus.
//
// Usage:
//
//	benchtables [-table 1|2|edges|fullprecomp|scaling|queries|engine|backends|regalloc|pipeline|warmstart|latency|all] [-limit N] [-json] [-regs K]
//
// -limit caps the number of procedures generated per benchmark (0 = the
// full corpus, 4823 procedures — Table 2 then takes a few minutes).
// The default limit of 120 yields stable shapes quickly. The engine table
// uses its own whole-program corpus, sized by -funcs and spread over the
// -workers counts; besides the precompute-scaling and batch-query tables
// it runs the engine contention benchmark (concurrent querier goroutines
// vs. a paced mutator), and with -json emits that contention report in the
// BENCH_*.json format.
//
// -table backends runs every backend registered with internal/backend over
// the same corpus and query stream — the paper's §6.2 engine comparison
// generalized to the whole registry. With -json the rows are emitted as
// machine-readable JSON (name, ns_per_op, query_ns_per_op, bytes), the
// format of the repository's BENCH_*.json performance trajectory.
//
// -table regalloc times every backend on the register-allocation workload
// (internal/regalloc, the repository's second client pass): the end-to-end
// dominance-order scan with that backend as the liveness oracle — spill
// rounds force re-analyses on set-producing backends but not on the
// checker — plus the recorded allocator query stream replayed per backend,
// with query counts reported. -regs sets the register budget; -json emits
// the rows machine-readably like -table backends.
//
// -table pipeline runs the full pass pipeline (internal/pipeline:
// construct -> split critical edges -> destruct -> regalloc, all liveness
// served by one engine per run) once per backend over identical slot-form
// clones, reporting end-to-end cost, the staleness-forced engine rebuilds
// the editing passes caused (0 for the checker — the paper's §4 property
// measured end to end), per-pass epoch deltas and query counts. -regs
// sets the base register budget; -json emits rows like the other tables.
//
// -table warmstart measures the persistent snapshot tier: a corpus of
// large loopy functions (~500-8000 blocks each) analyzed cold (empty
// snapshot store — full precompute plus write-back), warm (populated
// store, fresh handle per rep — mmap, verify the header and structural
// section checksums, adopt the persisted CFG/DFS/dom arrays and the
// dense R/T arenas zero-copy from the mapping; no structural
// re-derivation, no matrix pass) and with no store at all as the
// baseline. The savings column is the fraction of per-function precompute
// a warm process start no longer pays relative to a cold one; -json emits
// the report in the BENCH_*.json format (BENCH_7.json is the v2 format's
// point, BENCH_10.json the v3 format's).
//
// -table latency replays the recorded SSA-destruction query stream
// through a per-backend engine Oracle, timing each query individually
// into a log-bucketed histogram and interleaving a benign instruction
// edit every -editevery queries. The reported p50/p90/p99/p99.9 expose
// the invalidation asymmetry at the tail: set-producing backends pay an
// inline re-analysis on the first query after each edit (a p99 spike at
// the default edit rate), while the checker's CFG-only precomputation
// stays valid. -json emits the rows in the BENCH_*.json format
// (BENCH_9.json is its first point).
//
// -debug-addr serves GET /metrics (the bench harness's telemetry
// registry, populated by -table latency) and the net/http/pprof handlers
// on the given address for the duration of the run.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"fastliveness/internal/bench"
	"fastliveness/internal/debugserver"
)

// benchOpts holds every benchtables flag. registerFlags is the single
// registration point, shared with the tests so the flagTables map can be
// checked for drift against the real flag set.
type benchOpts struct {
	table     *string
	limit     *int
	workers   *string
	funcs     *int
	jsonOut   *bool
	regs      *int
	editEvery *int
	debugAddr *string
}

// registerFlags declares all flags on fs and returns their destinations.
func registerFlags(fs *flag.FlagSet) *benchOpts {
	return &benchOpts{
		table:     fs.String("table", "all", "which table: 1|2|edges|fullprecomp|queries|scaling|engine|backends|regalloc|pipeline|warmstart|latency|all"),
		limit:     fs.Int("limit", 120, "procedures per benchmark (0 = full corpus)"),
		workers:   fs.String("workers", "1,2,4,8", "worker/querier counts for -table engine"),
		funcs:     fs.Int("funcs", 128, "corpus size for -table engine"),
		jsonOut:   fs.Bool("json", false, "emit -table engine|backends|regalloc|pipeline|warmstart|latency rows as JSON"),
		regs:      fs.Int("regs", 8, "register budget for -table regalloc|pipeline"),
		editEvery: fs.Int("editevery", 64, "benign instruction edit every N queries for -table latency (0 = no edits)"),
		debugAddr: fs.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)"),
	}
}

func main() {
	opts := registerFlags(flag.CommandLine)
	flag.Parse()
	table := *opts.table

	jsonTables := map[string]bool{"engine": true, "backends": true, "regalloc": true, "pipeline": true, "warmstart": true, "latency": true}
	if *opts.jsonOut && !jsonTables[table] {
		fmt.Fprintln(os.Stderr, "-json is only supported with -table engine, backends, regalloc, pipeline, warmstart or latency")
		os.Exit(2)
	}
	for _, w := range warnIgnoredFlags(table, flag.CommandLine) {
		fmt.Fprintln(os.Stderr, "benchtables: warning:", w)
	}

	if *opts.debugAddr != "" {
		srv, err := debugserver.Start(*opts.debugAddr, bench.LatencyRegistry.Write)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics, /debug/pprof/)\n", srv.Addr())
	}

	workerCounts, err := parseWorkers(*opts.workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	needCorpus := map[string]bool{"1": true, "2": true, "edges": true,
		"fullprecomp": true, "queries": true, "backends": true,
		"regalloc": true, "latency": true, "all": true}[table]
	var corpora []*bench.Corpus
	if needCorpus {
		fmt.Fprintf(os.Stderr, "generating corpus (limit %d per benchmark)...\n", *opts.limit)
		corpora = bench.BuildAll(*opts.limit)
	}

	switch table {
	case "1":
		fmt.Println(bench.Table1(corpora))
	case "2":
		fmt.Println(bench.Table2(corpora))
	case "edges":
		fmt.Println(bench.EdgeStats(corpora))
	case "fullprecomp":
		fmt.Println(bench.FullPrecompStats(corpora))
	case "queries":
		fmt.Println(bench.DestructionStats(corpora))
	case "scaling":
		fmt.Println(bench.ScalingSeries([]int{64, 128, 256, 512, 1024, 2048, 4096}))
	case "engine":
		rep := bench.MeasureEngineContention(*opts.funcs, workerCounts, 0)
		if *opts.jsonOut {
			out, err := bench.EngineContentionJSON(rep)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(out)
		} else {
			fmt.Println(bench.ProgramTable(*opts.funcs, workerCounts, 3))
			fmt.Println(bench.EngineContentionSection(rep))
		}
	case "backends":
		if *opts.jsonOut {
			rows, err := bench.MeasureBackends(corpora)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			out, err := bench.BackendJSON(rows)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(out)
		} else {
			fmt.Println(bench.BackendTable(corpora))
		}
	case "regalloc":
		if *opts.jsonOut {
			rows, _, err := bench.MeasureRegalloc(corpora, *opts.regs)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			out, err := bench.RegallocJSON(rows)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(out)
		} else {
			fmt.Println(bench.RegallocTable(corpora, *opts.regs))
		}
	case "pipeline":
		if *opts.jsonOut {
			rows, err := bench.MeasurePipeline(*opts.limit, *opts.regs)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			out, err := bench.PipelineJSON(rows)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(out)
		} else {
			fmt.Println(bench.PipelineTable(*opts.limit, *opts.regs))
		}
	case "warmstart":
		// The warm-start corpus is deliberately small in function count —
		// its functions run to ~8000 blocks each, so 8 and 16 functions
		// already dwarf the other tables' corpora in analysis time.
		rep, err := bench.MeasureWarmStart([]int{8, 16}, 5)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *opts.jsonOut {
			out, err := bench.WarmStartJSON(rep)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(out)
		} else {
			fmt.Println(bench.WarmStartSection(rep))
		}
	case "latency":
		if *opts.jsonOut {
			rows, err := bench.MeasureLatency(corpora, *opts.editEvery)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			out, err := bench.LatencyJSON(rows)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Print(out)
		} else {
			fmt.Println(bench.LatencyTable(corpora, *opts.editEvery))
		}
	case "all":
		fmt.Println(bench.Table1(corpora))
		fmt.Println(bench.EdgeStats(corpora))
		fmt.Println(bench.Table2(corpora))
		fmt.Println(bench.DestructionStats(corpora))
		fmt.Println(bench.FullPrecompStats(corpora))
		fmt.Println(bench.ScalingSeries([]int{64, 128, 256, 512, 1024, 2048}))
		fmt.Println(bench.ProgramTable(*opts.funcs, workerCounts, 3))
		fmt.Println(bench.EngineContentionSection(
			bench.MeasureEngineContention(*opts.funcs, workerCounts, 0)))
		fmt.Println(bench.BackendTable(corpora))
		fmt.Println(bench.RegallocTable(corpora, *opts.regs))
		fmt.Println(bench.PipelineTable(*opts.limit, *opts.regs))
		fmt.Println(bench.LatencyTable(corpora, *opts.editEvery))
		if rep, err := bench.MeasureWarmStart([]int{8, 16}, 3); err == nil {
			fmt.Println(bench.WarmStartSection(rep))
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown table %q\n", table)
		os.Exit(2)
	}
}

// flagTables maps each tunable flag to the tables that honor it; a flag
// set on the command line for a table outside its list is silently
// ignored by the measurement, which warnIgnoredFlags turns into an
// explicit warning — a -workers 32 run of a table that never constructs an
// engine should say so rather than let the user believe they measured 32
// concurrent workers. Flags absent here must appear in
// alwaysHonoredFlags instead (they are validated elsewhere or honored by
// every table) — TestFlagTablesCoverRegisteredFlags enforces that every
// registered flag lands in exactly one of the two.
var flagTables = map[string][]string{
	"limit":     {"1", "2", "edges", "fullprecomp", "queries", "backends", "regalloc", "pipeline", "latency", "all"},
	"workers":   {"engine", "all"},
	"funcs":     {"engine", "all"},
	"regs":      {"regalloc", "pipeline", "all"},
	"editevery": {"latency", "all"},
}

// alwaysHonoredFlags lists the flags warnIgnoredFlags must never warn
// about: -table selects the table, -json is validated against
// jsonTables up front, and -debug-addr serves whatever the run produces.
var alwaysHonoredFlags = map[string]bool{
	"table":      true,
	"json":       true,
	"debug-addr": true,
}

// warnIgnoredFlags returns a warning per explicitly set flag that the
// selected table ignores, in flag-name order (fs.Visit is lexical).
func warnIgnoredFlags(table string, fs *flag.FlagSet) []string {
	var warns []string
	fs.Visit(func(f *flag.Flag) {
		honored, known := flagTables[f.Name]
		if !known {
			return
		}
		for _, t := range honored {
			if t == table {
				return
			}
		}
		warns = append(warns, fmt.Sprintf("-%s is ignored by -table %s", f.Name, table))
	})
	return warns
}

// parseWorkers reads the -workers list ("1,2,4,8").
func parseWorkers(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || n < 1 {
			return nil, fmt.Errorf("bad -workers entry %q (want positive integers, comma-separated)", part)
		}
		out = append(out, n)
	}
	return out, nil
}
