// Command livecheck answers liveness queries for textual IR functions.
//
// Usage:
//
//	livecheck [flags] file.ssair
//	livecheck [flags] -            # read from stdin
//	livecheck [flags] dir/         # whole-program mode: every *.ssair below dir
//	livecheck [flags] a.ssair b.ssair ...
//
// With -q, it answers individual queries; without, it dumps the live-in and
// live-out sets of every block (computed through the selected backend's
// characteristic function).
//
//	livecheck -q '%x@b3' -q 'out:%y@b2' prog.ssair
//
// Whole-program mode (a directory argument, or several files) analyzes one
// function per file through the concurrent engine and prints a per-function
// summary; queries then name their function with a third '@' component:
//
//	livecheck -parallel 8 -q '%x@b3@myfunc' build/ssair/
//
// Flags:
//
//	-construct    run SSA construction first (for slot-form inputs)
//	-backend      liveness backend: checker (default) | dataflow | lao |
//	              pervar | loops | auto — any name in the internal/backend
//	              registry. Every backend answers queries identically (the
//	              differential suite proves it), so changing the flag never
//	              changes query answers or set dumps, only the engine that
//	              computes them — -stats output (backend names, set bytes)
//	              naturally differs per backend. Works in single-function
//	              and whole-program mode alike.
//	-verify       verify strict SSA before analyzing (default true)
//	-stats        print CFG/analysis statistics; the run then ends with an
//	              "engine: ..." line summarizing the engine's metrics
//	              snapshot (builds, queries, rebuilds, quarantines — see
//	              Engine.Metrics)
//	-debug-addr   serve GET /metrics (the engine's Prometheus text
//	              exposition) and the net/http/pprof handlers on this
//	              address for the duration of the run
//	-parallel     precompute worker count in whole-program mode (0 = GOMAXPROCS)
//	-regalloc K   run the SSA register allocator (internal/regalloc) with a
//	              budget of K registers against the selected backend's
//	              liveness answers, printing register pressure, spill
//	              counts and the per-value assignment. The oracle is
//	              engine-served and auto-refreshes on the function's edit
//	              epochs: with the default checker backend the spill loop
//	              re-queries the original analysis (spill code never edits
//	              the CFG), other backends transparently re-analyze.
//	-pipeline     drive every input function through the full pass
//	              pipeline (internal/pipeline: construct, split critical
//	              edges, destruct, regalloc with the -regalloc budget or 8)
//	              against the selected backend, printing the per-pass
//	              epoch-delta/rebuild/query report. Inputs may be slot
//	              form; the pipeline constructs SSA itself.
//	-fail-fast    abort a whole-program run on the first failing function.
//	              By default a failing file (parse error, broken SSA, a
//	              backend limit like irreducible CFGs under -backend loops)
//	              is reported as FAILED in place, every other function is
//	              still analyzed, and the run exits non-zero at the end
//	              with a summary of the failures.
//	-snapshot-dir persist checker precomputations to (and load them from)
//	              this directory, keyed by CFG structure: a second run over
//	              the same program skips every per-function precompute. The
//	              run ends with a "snapshot: H hits, M misses, S stored"
//	              summary plus a "snapshot-store: ..." line of decoded-cache
//	              and per-section checksum traffic. Snapshots never change
//	              answers — a stale or
//	              corrupt entry is validated away and recomputed. Only the
//	              checker backend persists; other -backend choices ignore
//	              the directory.
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"

	"fastliveness"
	"fastliveness/internal/cfg"
	"fastliveness/internal/debugserver"
	"fastliveness/internal/dom"
	"fastliveness/internal/ir"
	"fastliveness/internal/pipeline"
	"fastliveness/internal/regalloc"
	"fastliveness/internal/ssa"
)

// stdout is the destination of all normal output; tests retarget it to
// capture golden runs.
var stdout io.Writer = os.Stdout

// debugEngine publishes the run's engine to the -debug-addr /metrics
// handler, which may scrape at any point of the run (including before
// the engine exists — the exposition is then empty, which the format
// allows).
var debugEngine atomic.Pointer[fastliveness.Engine]

// writeDebugMetrics renders the published engine's metrics, if any.
func writeDebugMetrics(w io.Writer) {
	if eng := debugEngine.Load(); eng != nil {
		eng.WriteMetrics(w)
	}
}

type queryList []string

func (q *queryList) String() string     { return strings.Join(*q, ",") }
func (q *queryList) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	var (
		construct = flag.Bool("construct", false, "run SSA construction (slot-form inputs)")
		backendN  = flag.String("backend", "checker",
			"liveness backend: "+strings.Join(fastliveness.Backends(), "|"))
		verify    = flag.Bool("verify", true, "verify strict SSA before analyzing")
		stat      = flag.Bool("stats", false, "print CFG/analysis statistics")
		parallel  = flag.Int("parallel", 0, "whole-program precompute workers (0 = GOMAXPROCS)")
		regs      = flag.Int("regalloc", 0, "allocate that many registers and print the assignment (0 = off)")
		pipe      = flag.Bool("pipeline", false, "run the full pass pipeline and print the per-pass report")
		snapDir   = flag.String("snapshot-dir", "", "persist checker precomputations under this directory and reuse them across runs")
		failFast  = flag.Bool("fail-fast", false, "abort a whole-program run on the first failing function instead of collecting failures")
		debugAddr = flag.String("debug-addr", "", "serve /metrics and /debug/pprof on this address (e.g. localhost:6060)")
		queries   queryList
	)
	flag.Var(&queries, "q", "query '[in:|out:]%value@block[@func]' (repeatable)")
	flag.Parse()
	if flag.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: livecheck [flags] file.ssair | - | dir/ | file...")
		flag.Usage()
		os.Exit(2)
	}
	if *debugAddr != "" {
		srv, err := debugserver.Start(*debugAddr, writeDebugMetrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "livecheck:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "debug server on http://%s (/metrics, /debug/pprof/)\n", srv.Addr())
	}
	paths, program, err := programArgs(flag.Args())
	var snap *fastliveness.SnapshotStore
	if err == nil && *snapDir != "" {
		snap, err = fastliveness.OpenSnapshotStore(*snapDir, 0)
	}
	if err == nil {
		switch {
		case *pipe:
			err = runPipeline(paths, *backendN, *verify, *regs)
		case program:
			err = runProgram(paths, *construct, *backendN, *verify, *stat, *parallel, *regs, snap, queries, *failFast)
		default:
			err = run(flag.Arg(0), *construct, *backendN, *verify, *stat, *regs, snap, queries)
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "livecheck:", err)
		os.Exit(1)
	}
}

// programArgs expands directory arguments into their *.ssair files and
// reports whether the invocation is whole-program mode (any directory, or
// more than one file).
func programArgs(args []string) ([]string, bool, error) {
	var paths []string
	program := len(args) > 1
	for _, a := range args {
		info, err := os.Stat(a)
		if err == nil && info.IsDir() {
			program = true
			err := filepath.WalkDir(a, func(p string, d fs.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() && strings.HasSuffix(p, ".ssair") {
					paths = append(paths, p)
				}
				return nil
			})
			if err != nil {
				return nil, true, fmt.Errorf("walking %s: %w", a, err)
			}
			continue
		}
		paths = append(paths, a)
	}
	sort.Strings(paths)
	return paths, program, nil
}

// parseFile reads one .ssair file ("-" = stdin) and parses it, wrapping
// errors with the path. Shared by every mode.
func parseFile(p string) (*ir.Func, error) {
	var src []byte
	var err error
	if p == "-" {
		src, err = io.ReadAll(os.Stdin)
	} else {
		src, err = os.ReadFile(p)
	}
	if err != nil {
		return nil, err
	}
	f, err := ir.Parse(string(src))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	return f, nil
}

// funcFailure is one file a whole-program run could not analyze: parse or
// verification failure, or a per-function engine error (a quarantined
// function, a backend limit like irreducible CFGs under -backend loops).
type funcFailure struct {
	path string
	err  error
}

// failuresError renders the collected failures as the run's error, so the
// process exits non-zero after having processed every function it could.
func failuresError(total int, failures []funcFailure) error {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%d of %d functions failed:", len(failures), total)
	for _, fl := range failures {
		fmt.Fprintf(&sb, "\n  %s: %v", fl.path, fl.err)
	}
	return fmt.Errorf("%s", sb.String())
}

// runProgram is whole-program mode: one function per file, analyzed
// concurrently by the engine with the selected backend, summarized (or
// queried) in sorted file order so output is deterministic regardless of
// parallelism.
//
// A failing function does not abort the run (unless failFast): its file is
// reported as FAILED, every other function is still analyzed, queried and
// summarized, and the run ends with a non-nil error listing the failures —
// so one broken input in a large directory costs one diagnostic, not the
// whole batch. With zero failures the output is byte-identical to the
// pre-collection behavior.
func runProgram(paths []string, construct bool, backendName string, verify, stat bool, parallel, regs int, snap *fastliveness.SnapshotStore, queries queryList, failFast bool) error {
	if len(paths) == 0 {
		return fmt.Errorf("no .ssair files found")
	}
	var failures []funcFailure
	fail := func(p string, err error) error {
		if failFast {
			return err
		}
		failures = append(failures, funcFailure{path: p, err: err})
		fmt.Fprintf(stdout, "%s: FAILED: %v\n", p, err)
		return nil
	}
	funcs := make([]*ir.Func, 0, len(paths))
	okPaths := make([]string, 0, len(paths))
	byName := make(map[string]*ir.Func, len(paths))
	for _, p := range paths {
		f, err := parseFile(p)
		if err != nil {
			if err := fail(p, err); err != nil {
				return err
			}
			continue
		}
		if construct {
			ssa.Construct(f)
		}
		if verify {
			if err := ssa.VerifyStrict(f); err != nil {
				if err := fail(p, fmt.Errorf("not strict SSA: %w", err)); err != nil {
					return err
				}
				continue
			}
		}
		if _, dup := byName[f.Name]; dup {
			if err := fail(p, fmt.Errorf("duplicate function name @%s", f.Name)); err != nil {
				return err
			}
			continue
		}
		byName[f.Name] = f
		funcs = append(funcs, f)
		okPaths = append(okPaths, p)
	}

	eng, err := fastliveness.AnalyzeProgram(funcs, fastliveness.EngineConfig{
		Config:        fastliveness.Config{Backend: backendName},
		Parallelism:   parallel,
		SnapshotStore: snap,
	})
	if err != nil && failFast {
		return err
	}
	// Without failFast the precompute error is not terminal: the engine
	// stays usable for every function that analyzed cleanly, and the
	// per-function Liveness below re-surfaces each failure individually.
	defer eng.Close()
	debugEngine.Store(eng)

	if len(queries) > 0 {
		if stat {
			for _, f := range funcs {
				printStats(f)
			}
		}
		for _, q := range queries {
			if err := answerProgram(eng, byName, q); err != nil {
				return err
			}
		}
		if regs > 0 {
			for _, f := range funcs {
				oracle, err := eng.Oracle(f)
				if err != nil {
					return err
				}
				if err := printRegalloc(f, oracle, regs); err != nil {
					return err
				}
			}
		}
		printSnapshotStats(eng, snap)
		printEngineMetrics(eng, stat)
		if len(failures) > 0 {
			return failuresError(len(paths), failures)
		}
		return nil
	}

	analyzed := 0
	for i, f := range funcs {
		live, err := eng.Liveness(f)
		if err != nil {
			if err := fail(okPaths[i], err); err != nil {
				return err
			}
			continue
		}
		analyzed++
		fmt.Fprintf(stdout, "%s: ", okPaths[i])
		printStats(f)
		if stat {
			fmt.Fprintf(stdout, "  backend %s, precomputed sets: %dB\n",
				live.Backend(), live.MemoryBytes())
		}
		if regs > 0 {
			oracle, err := eng.Oracle(f)
			if err != nil {
				return err
			}
			if err := printRegalloc(f, oracle, regs); err != nil {
				return err
			}
		}
	}
	fmt.Fprintf(stdout, "%d functions analyzed (%d resident, %d bytes of precomputed sets)\n",
		analyzed, eng.Resident(), eng.MemoryBytes())
	printSnapshotStats(eng, snap)
	printEngineMetrics(eng, stat)
	if len(failures) > 0 {
		return failuresError(len(paths), failures)
	}
	return nil
}

// printEngineMetrics ends a -stats run with one deterministic line of the
// engine's consolidated metrics snapshot (Engine.Metrics).
func printEngineMetrics(eng *fastliveness.Engine, stat bool) {
	if !stat {
		return
	}
	m := eng.Metrics()
	fmt.Fprintf(stdout, "engine: funcs=%d resident=%d builds=%d computes=%d queries=%d batches=%d rebuilds=%d quarantined=%d\n",
		m.Funcs, m.Resident, m.Builds, m.Snapshot.Computes, m.Queries, m.Batches,
		m.Rebuilds, m.Quarantined)
}

// printSnapshotStats ends a -snapshot-dir run with its disk-tier traffic.
// The first line is the stable scriptable one — the double-run smoke in CI
// greps the second run for "0 misses" — so new counters go on a second
// line: the store's decoded-cache traffic and the per-section checksum
// accounting (scans = sections CRC-verified off disk, skips = sections
// served without a scan — from the decoded cache, as deferred arena
// sections on the aliasing mmap path, or after an early version/header
// reject). Write-backs are inline, so every save is on disk and counted
// by the time the builds return.
func printSnapshotStats(eng *fastliveness.Engine, snap *fastliveness.SnapshotStore) {
	if snap == nil {
		return
	}
	s := eng.SnapshotStats()
	fmt.Fprintf(stdout, "snapshot: %d hits, %d misses, %d stored\n", s.Hits, s.Misses, s.Stores)
	fmt.Fprintf(stdout, "snapshot-store: %d cached loads, %d file loads, %d section scans, %d section skips\n",
		s.DecodedCacheHits, s.DecodedCacheMisses, s.SectionScans, s.SectionSkips)
}

// answerProgram resolves a '[in:|out:]%value@block@func' query against the
// engine, through an Oracle — the counted query path, so a -stats run
// reports these under queries=. With exactly one function loaded, the
// '@func' component may be omitted.
func answerProgram(eng *fastliveness.Engine, byName map[string]*ir.Func, q string) error {
	kind, rest := splitKind(q)
	parts := strings.Split(rest, "@")
	var f *ir.Func
	switch {
	case len(parts) == 3:
		f = byName[parts[2]]
		if f == nil {
			return fmt.Errorf("unknown function %q in query %q", parts[2], q)
		}
		rest = parts[0] + "@" + parts[1]
	case len(parts) == 2 && len(byName) == 1:
		for _, only := range byName {
			f = only
		}
	default:
		return fmt.Errorf("bad query %q (want '[in:|out:]%%value@block@func' in whole-program mode)", q)
	}
	o, err := eng.Oracle(f)
	if err != nil {
		return err
	}
	return answer(f, kind, rest, o.IsLiveIn, o.IsLiveOut)
}

func run(path string, construct bool, backendName string, verify, stat bool, regs int, snap *fastliveness.SnapshotStore, queries queryList) error {
	f, err := parseFile(path)
	if err != nil {
		return err
	}
	if construct {
		ssa.Construct(f)
	}
	if verify {
		if err := ssa.VerifyStrict(f); err != nil {
			return fmt.Errorf("not strict SSA (use -construct for slot form, -verify=false to skip): %w", err)
		}
	}

	// One-function engine: the same analysis serves queries, set dumps and
	// — with -regalloc — the allocator's auto-refreshing oracle, so the
	// function is analyzed exactly once.
	eng := fastliveness.NewEngine(fastliveness.EngineConfig{
		Config:        fastliveness.Config{Backend: backendName},
		SnapshotStore: snap,
	})
	eng.Add(f)
	debugEngine.Store(eng)
	// Queries and set dumps go through an Oracle — the engine's counted
	// (and auto-refreshing) query path, so -stats and /metrics account for
	// them. Analysis failures surface here, as with Liveness.
	oracle, err := eng.Oracle(f)
	if err != nil {
		return err
	}
	liveIn, liveOut := queryFunc(oracle.IsLiveIn), queryFunc(oracle.IsLiveOut)

	if stat {
		printStats(f)
	}

	regallocPass := func() error {
		oracle, err := eng.Oracle(f)
		if err != nil {
			return err
		}
		return printRegalloc(f, oracle, regs)
	}

	if len(queries) > 0 {
		for _, q := range queries {
			kind, rest := splitKind(q)
			if err := answer(f, kind, rest, liveIn, liveOut); err != nil {
				return err
			}
		}
		if regs > 0 {
			if err := regallocPass(); err != nil {
				return err
			}
		}
		printSnapshotStats(eng, snap)
		printEngineMetrics(eng, stat)
		return nil
	}

	// Dump per-block sets.
	for _, b := range f.Blocks {
		var ins, outs []string
		f.Values(func(v *ir.Value) {
			if !v.Op.HasResult() {
				return
			}
			if liveIn(v, b) {
				ins = append(ins, v.String())
			}
			if liveOut(v, b) {
				outs = append(outs, v.String())
			}
		})
		fmt.Fprintf(stdout, "%s:\n  live-in : %s\n  live-out: %s\n",
			b, strings.Join(ins, " "), strings.Join(outs, " "))
	}
	if regs > 0 {
		if err := regallocPass(); err != nil {
			return err
		}
	}
	printSnapshotStats(eng, snap)
	printEngineMetrics(eng, stat)
	return nil
}

// runPipeline drives every input function through the default pass chain
// (internal/pipeline) with one engine on the selected backend, printing
// the per-pass accounting: which edit class each pass exercised (epoch
// deltas), how many engine rebuilds its edits forced, and how many
// liveness queries it issued. Inputs may be slot form — construction is
// the first pass. Output is deterministic (no timings), so it doubles as
// the golden-test surface.
func runPipeline(paths []string, backendName string, verify bool, regs int) error {
	if len(paths) == 0 {
		return fmt.Errorf("no .ssair files found")
	}
	var funcs []*ir.Func
	for _, p := range paths {
		f, err := parseFile(p)
		if err != nil {
			return err
		}
		funcs = append(funcs, f)
	}
	rep, err := pipeline.Run(funcs, pipeline.Config{
		Backend: backendName, Regs: regs, Verify: verify,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pipeline backend=%s: %d funcs (%d skipped), k=%d, %d stale rebuilds, %d queries\n",
		rep.Backend, rep.Funcs, rep.Skipped, rep.Regs, rep.Rebuilds, rep.Queries)
	fmt.Fprintf(stdout, "  %-12s %6s %7s %9s %9s\n", "pass", "dcfg", "dinstr", "rebuilds", "queries")
	for _, ps := range rep.Passes {
		fmt.Fprintf(stdout, "  %-12s %6d %7d %9d %9d\n",
			ps.Pass, ps.CFGEdits, ps.InstrEdits, ps.Rebuilds, ps.Queries)
	}
	fmt.Fprintf(stdout, "  %d phis eliminated, %d copies, %d spills (widest budget %d)\n",
		rep.Phis, rep.Copies, rep.Spills, rep.MaxRegs)
	return nil
}

// printRegalloc runs the register allocator against an engine-served
// oracle and prints pressure, spill statistics and the per-value
// assignment. The oracle auto-refreshes on the function's edit epochs, so
// no per-backend refresh wiring exists here: the checker serves every
// spill round from one precomputation (spill code edits instructions,
// never the CFG) while set-producing backends transparently re-analyze.
func printRegalloc(f *ir.Func, oracle *fastliveness.Oracle, k int) error {
	p := regalloc.MeasurePressure(f, oracle)
	alloc, err := regalloc.Run(f, oracle, k)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "regalloc @%s: k=%d: %d registers used, max pressure %d (%s), %d spills, %d rounds\n",
		f.Name, k, alloc.NumRegs, p.Max, p.MaxBlock, alloc.Stats.Spills, alloc.Stats.Rounds)
	f.Values(func(v *ir.Value) {
		if !v.Op.HasResult() {
			return
		}
		fmt.Fprintf(stdout, "  %-8s -> r%d\n", v.String(), alloc.RegOf(v))
	})
	return nil
}

type queryFunc func(*ir.Value, *ir.Block) bool

// splitKind strips the optional 'in:'/'out:' query prefix, returning it
// (with the colon) and the remainder.
func splitKind(q string) (kind, rest string) {
	switch {
	case strings.HasPrefix(q, "in:"):
		return "in:", q[3:]
	case strings.HasPrefix(q, "out:"):
		return "out:", q[4:]
	}
	return "", q
}

// answer resolves and prints one query, already split by splitKind into
// its prefix ("", "in:" or "out:") and '%value@block' remainder.
func answer(f *ir.Func, prefix, rest string, liveIn, liveOut queryFunc) error {
	kind := "in"
	if prefix == "out:" {
		kind = "out"
	}
	at := strings.IndexByte(rest, '@')
	if at < 0 || !strings.HasPrefix(rest, "%") {
		return fmt.Errorf("bad query %q (want '[in:|out:]%%value@block')", prefix+rest)
	}
	v := f.ValueByName(rest[1:at])
	if v == nil {
		return fmt.Errorf("unknown value %q", rest[:at])
	}
	b := f.BlockByName(rest[at+1:])
	if b == nil {
		return fmt.Errorf("unknown block %q", rest[at+1:])
	}
	var res bool
	if kind == "in" {
		res = liveIn(v, b)
	} else {
		res = liveOut(v, b)
	}
	fmt.Fprintf(stdout, "live-%s(%s, %s) = %v\n", kind, v, b, res)
	return nil
}

func printStats(f *ir.Func) {
	g, _ := cfg.FromFunc(f)
	d := cfg.NewDFS(g)
	tree := dom.Iterative(g, d)
	vars := 0
	f.Values(func(v *ir.Value) {
		if v.Op.HasResult() {
			vars++
		}
	})
	fmt.Fprintf(stdout, "func @%s: %d blocks, %d edges (%d back), %d variables, reducible=%v\n",
		f.Name, len(f.Blocks), g.NumEdges(), len(d.BackEdges), vars, dom.IsReducible(d, tree))
}
