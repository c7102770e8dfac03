package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fastliveness"
)

const loopSrc = `
func @loop(%n) {
entry:
  %zero = const 0
  %one = const 1
  br head
head:
  %i = phi [%zero, entry], [%inext, body]
  %cmp = cmplt %i, %n
  if %cmp -> body, exit
body:
  %inext = add %i, %one
  br head
exit:
  ret %i
}
`

func writeTemp(t *testing.T, src string) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "prog.ssair")
	if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// capture redirects the command's output for golden comparisons.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	var buf bytes.Buffer
	old := stdout
	stdout = &buf
	defer func() { stdout = old }()
	if err := fn(); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// goldenDump is livecheck's set dump for loopSrc. Every backend must
// reproduce it byte for byte: the -backend flag changes the engine, never
// the answers.
const goldenDump = `entry:
  live-in :
  live-out: %n %one
head:
  live-in : %n %one
  live-out: %n %one %i
body:
  live-in : %n %one %i
  live-out: %n %one
exit:
  live-in : %i
  live-out:
`

// trimLines strips trailing whitespace per line so golden literals need no
// invisible trailing spaces (empty sets print after "live-in : ").
func trimLines(s string) string {
	lines := strings.Split(s, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t")
	}
	return strings.Join(lines, "\n")
}

func TestRunGoldenPerBackend(t *testing.T) {
	p := writeTemp(t, loopSrc)
	for _, name := range fastliveness.Backends() {
		name := name
		t.Run(name, func(t *testing.T) {
			got := capture(t, func() error { return run(p, false, name, true, false, 0, nil, nil) })
			if trimLines(got) != trimLines(goldenDump) {
				t.Errorf("backend %s dump:\n%s\nwant:\n%s", name, got, goldenDump)
			}
			queries := capture(t, func() error {
				return run(p, false, name, true, false, 0, nil,
					queryList{"%n@body", "out:%i@head", "in:%one@exit"})
			})
			want := "live-in(%n, body) = true\nlive-out(%i, head) = true\nlive-in(%one, exit) = false\n"
			if queries != want {
				t.Errorf("backend %s queries:\n%s\nwant:\n%s", name, queries, want)
			}
		})
	}
}

func TestRunDumpsSets(t *testing.T) {
	p := writeTemp(t, loopSrc)
	for _, name := range fastliveness.Backends() {
		if err := run(p, false, name, true, true, 0, nil, nil); err != nil {
			t.Fatalf("backend %s: %v", name, err)
		}
	}
}

func TestRunQueries(t *testing.T) {
	p := writeTemp(t, loopSrc)
	err := run(p, false, "checker", true, false, 0, nil,
		queryList{"%n@body", "out:%i@head", "in:%one@exit"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	p := writeTemp(t, loopSrc)
	cases := []struct {
		queries queryList
		backend string
		want    string
	}{
		{queryList{"%nosuch@body"}, "checker", "unknown value"},
		{queryList{"%n@nowhere"}, "checker", "unknown block"},
		{queryList{"garbage"}, "checker", "bad query"},
		{nil, "frobnicate", "unknown backend"},
	}
	for _, c := range cases {
		err := run(p, false, c.backend, true, false, 0, nil, c.queries)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("queries %v backend %s: err = %v, want %q", c.queries, c.backend, err, c.want)
		}
	}
	if err := run(filepath.Join(t.TempDir(), "missing"), false, "checker", true, false, 0, nil, nil); err == nil {
		t.Error("missing file should error")
	}
}

func TestRunConstructsSlotForm(t *testing.T) {
	slot := `
func @s(%p) {
b0:
  slots 1
  slotstore 0, %p
  br b1
b1:
  %x = slotload 0
  ret %x
}
`
	p := writeTemp(t, slot)
	// Without -construct, strict verification must reject slot ops.
	if err := run(p, false, "checker", true, false, 0, nil, nil); err == nil {
		t.Fatal("slot form should fail strict verification")
	}
	// With -construct it passes.
	if err := run(p, true, "checker", true, false, 0, nil, nil); err != nil {
		t.Fatal(err)
	}
}

const clampSrc = `
func @clamp(%x, %lo, %hi) {
entry:
  %small = cmplt %x, %lo
  if %small -> retlo, checkhi
retlo:
  br join
checkhi:
  %big = cmplt %hi, %x
  if %big -> rethi, join
rethi:
  br join
join:
  %r = phi [%lo, retlo], [%x, checkhi], [%hi, rethi]
  ret %r
}
`

// deadSrc parses but has a block unreachable from the entry, which every
// backend rejects — a per-function analysis failure the collection tests
// exercise.
const deadSrc = `
func @dead(%p) {
entry:
  ret %p
dead:
  ret %p
}
`

// captureErr is capture for runs that are expected to fail: it returns
// the output and the error instead of fataling.
func captureErr(t *testing.T, fn func() error) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	old := stdout
	stdout = &buf
	defer func() { stdout = old }()
	err := fn()
	return buf.String(), err
}

// A whole-program run with broken inputs analyzes everything it can,
// reports each failure in place, and exits non-zero at the end; -fail-fast
// restores the old abort-on-first-error behavior.
func TestRunProgramCollectsFailures(t *testing.T) {
	dir := writeProgram(t, map[string]string{
		"clamp.ssair":   clampSrc,
		"dead.ssair":    deadSrc,
		"garbage.ssair": "this is not ssair\n",
		"loop.ssair":    loopSrc,
	})
	paths, _, _ := programArgs([]string{dir})

	// Collection mode: @dead has an unreachable block and the parser
	// rejects garbage.ssair; @clamp and @loop still analyze.
	out, err := captureErr(t, func() error {
		return runProgram(paths, false, "checker", true, false, 2, 0, nil, nil, false)
	})
	if err == nil {
		t.Fatalf("run with broken inputs returned nil; output:\n%s", out)
	}
	if !strings.Contains(err.Error(), "2 of 4 functions failed:") ||
		!strings.Contains(err.Error(), "dead.ssair") || !strings.Contains(err.Error(), "garbage.ssair") {
		t.Errorf("error lists the wrong failures:\n%v", err)
	}
	for _, want := range []string{
		"garbage.ssair: FAILED:",
		"dead.ssair: FAILED:",
		"2 functions analyzed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	if !strings.Contains(out, "func @clamp:") || !strings.Contains(out, "func @loop:") {
		t.Errorf("clean functions were not summarized:\n%s", out)
	}

	// -fail-fast: the first failure aborts, nothing is summarized.
	out, err = captureErr(t, func() error {
		return runProgram(paths, false, "checker", true, false, 2, 0, nil, nil, true)
	})
	if err == nil {
		t.Fatal("fail-fast run with broken inputs returned nil")
	}
	if strings.Contains(out, "FAILED") || strings.Contains(out, "functions analyzed") {
		t.Errorf("fail-fast run still produced the collection output:\n%s", out)
	}

	// With zero failures, collection mode's output is byte-identical to
	// fail-fast mode's — the old format.
	cleanDir := writeProgram(t, map[string]string{"clamp.ssair": clampSrc, "loop.ssair": loopSrc})
	cleanPaths, _, _ := programArgs([]string{cleanDir})
	collected := capture(t, func() error {
		return runProgram(cleanPaths, false, "checker", true, false, 2, 0, nil, nil, false)
	})
	fastOut := capture(t, func() error {
		return runProgram(cleanPaths, false, "checker", true, false, 2, 0, nil, nil, true)
	})
	if collected != fastOut {
		t.Errorf("clean-run output differs between modes:\ncollect:\n%s\nfail-fast:\n%s", collected, fastOut)
	}
}

// writeProgram lays out a directory with one .ssair file per function.
func writeProgram(t *testing.T, srcs map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range srcs {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func TestProgramArgsExpandsDirectories(t *testing.T) {
	dir := writeProgram(t, map[string]string{
		"loop.ssair": loopSrc, "clamp.ssair": clampSrc, "note.txt": "ignored",
	})
	paths, program, err := programArgs([]string{dir})
	if err != nil {
		t.Fatal(err)
	}
	if !program {
		t.Fatal("directory argument should select whole-program mode")
	}
	if len(paths) != 2 {
		t.Fatalf("found %d .ssair files, want 2: %v", len(paths), paths)
	}
	if _, program, _ := programArgs([]string{filepath.Join(dir, "loop.ssair")}); program {
		t.Fatal("single file should stay in single-function mode")
	}
}

func TestRunProgramSummaryAndQueries(t *testing.T) {
	dir := writeProgram(t, map[string]string{"loop.ssair": loopSrc, "clamp.ssair": clampSrc})
	paths, _, _ := programArgs([]string{dir})
	if err := runProgram(paths, false, "checker", true, true, 4, 0, nil, nil, false); err != nil {
		t.Fatal(err)
	}
	qs := queryList{"%i@body@loop", "out:%x@entry@clamp", "in:%r@join@clamp"}
	if err := runProgram(paths, false, "checker", true, false, 2, 0, nil, qs, false); err != nil {
		t.Fatal(err)
	}
}

// -snapshot-dir double run: the first run misses and stores, the second
// run of the same program answers identically with zero misses and zero
// new stores — the warm-start contract, end to end through the CLI. Same
// assertion the CI smoke makes on the built binary.
func TestRunProgramSnapshotDoubleRun(t *testing.T) {
	dir := writeProgram(t, map[string]string{"loop.ssair": loopSrc, "clamp.ssair": clampSrc})
	paths, _, _ := programArgs([]string{dir})
	snap, err := fastliveness.OpenSnapshotStore(filepath.Join(t.TempDir(), "snap"), 0)
	if err != nil {
		t.Fatal(err)
	}
	runOnce := func() string {
		return capture(t, func() error {
			return runProgram(paths, false, "checker", true, false, 2, 0, snap, nil, false)
		})
	}
	cold, warm := runOnce(), runOnce()
	if !strings.Contains(cold, "snapshot: 0 hits, 2 misses, 2 stored") {
		t.Errorf("cold run summary:\n%s", cold)
	}
	if !strings.Contains(warm, "snapshot: 2 hits, 0 misses, 0 stored") {
		t.Errorf("warm run summary:\n%s", warm)
	}
	if cut := func(s string) string { return s[:strings.Index(s, "snapshot:")] }; cut(cold) != cut(warm) {
		t.Errorf("snapshot-loaded output differs:\ncold:\n%s\nwarm:\n%s", cold, warm)
	}

	// The second line carries the store-global decoded-cache and
	// per-section accounting: the cold run's two loads found no files (no
	// sections to scan), the warm run's two file-backed aliasing loads
	// each scanned the three structural sections and deferred the two
	// arena sections.
	if !strings.Contains(cold, "snapshot-store: 0 cached loads, 2 file loads, 0 section scans, 0 section skips") {
		t.Errorf("cold run store summary:\n%s", cold)
	}
	if !strings.Contains(warm, "snapshot-store: 0 cached loads, 4 file loads, 6 section scans, 4 section skips") {
		t.Errorf("warm run store summary:\n%s", warm)
	}

	// Single-function mode shares the store and the summary line; its one
	// load is absorbed by the shared handle's decoded cache, skipping all
	// five section scans.
	single := capture(t, func() error {
		return run(paths[0], false, "checker", true, false, 0, snap, nil)
	})
	if !strings.Contains(single, "snapshot: 1 hits, 0 misses, 0 stored") {
		t.Errorf("single-function warm run summary:\n%s", single)
	}
	if !strings.Contains(single, "snapshot-store: 1 cached loads, 4 file loads, 6 section scans, 9 section skips") {
		t.Errorf("single-function warm run store summary:\n%s", single)
	}
}

// Whole-program mode accepts every registered backend and answers the same
// queries identically through each.
func TestRunProgramPerBackend(t *testing.T) {
	dir := writeProgram(t, map[string]string{"loop.ssair": loopSrc, "clamp.ssair": clampSrc})
	paths, _, _ := programArgs([]string{dir})
	qs := queryList{"out:%i@head@loop", "in:%r@join@clamp"}
	var want string
	for i, name := range fastliveness.Backends() {
		got := capture(t, func() error { return runProgram(paths, false, name, true, false, 2, 0, nil, qs, false) })
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("backend %s answers:\n%s\nwant (backend %s):\n%s",
				name, got, fastliveness.Backends()[0], want)
		}
	}
}

func TestRunProgramErrors(t *testing.T) {
	dir := writeProgram(t, map[string]string{"loop.ssair": loopSrc, "clamp.ssair": clampSrc})
	paths, _, _ := programArgs([]string{dir})
	cases := []struct {
		queries queryList
		backend string
		want    string
	}{
		{queryList{"%i@body@nosuch"}, "checker", "unknown function"},
		{queryList{"%i@body"}, "checker", "bad query"},
		{nil, "frobnicate", "unknown backend"},
	}
	for _, c := range cases {
		err := runProgram(paths, false, c.backend, true, false, 1, 0, nil, c.queries, false)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("queries %v backend %s: err = %v, want %q", c.queries, c.backend, err, c.want)
		}
	}
	if err := runProgram(nil, false, "checker", true, false, 1, 0, nil, nil, false); err == nil {
		t.Error("empty program should error")
	}
	// Duplicate function names across files are rejected.
	dup := writeProgram(t, map[string]string{"a.ssair": loopSrc, "b.ssair": loopSrc})
	paths, _, _ = programArgs([]string{dup})
	if err := runProgram(paths, false, "checker", true, false, 1, 0, nil, nil, false); err == nil ||
		!strings.Contains(err.Error(), "duplicate function name") {
		t.Errorf("duplicate names: err = %v", err)
	}
	// Single-file program mode may omit the @func component.
	single := writeProgram(t, map[string]string{"loop.ssair": loopSrc})
	paths, _, _ = programArgs([]string{single})
	if err := runProgram(paths, false, "checker", true, false, 1, 0, nil, queryList{"out:%i@head"}, false); err != nil {
		t.Errorf("single-function program without @func: %v", err)
	}
}

// -regalloc prints a deterministic assignment; every backend must agree on
// the assignment (identical answers drive identical scans), and the
// allocation must respect the loop function's pressure.
func TestRunRegallocGoldenPerBackend(t *testing.T) {
	var want string
	for i, name := range fastliveness.Backends() {
		p := writeTemp(t, loopSrc) // fresh file: spills would edit in place
		got := capture(t, func() error { return run(p, false, name, true, false, 4, nil, nil) })
		if i == 0 {
			want = got
			if !strings.Contains(got, "regalloc @loop: k=4:") ||
				!strings.Contains(got, "max pressure 4") ||
				!strings.Contains(got, "0 spills") {
				t.Fatalf("unexpected regalloc output:\n%s", got)
			}
			continue
		}
		if got != want {
			t.Errorf("backend %s regalloc output:\n%s\nwant (backend %s):\n%s",
				name, got, fastliveness.Backends()[0], want)
		}
	}
	// A below-pressure budget forces spilling; the run must still succeed
	// and report it.
	p := writeTemp(t, loopSrc)
	got := capture(t, func() error { return run(p, false, "checker", true, false, 3, nil, nil) })
	if !strings.Contains(got, "spills") || strings.Contains(got, " 0 spills") {
		t.Errorf("k=3 should spill on the loop function:\n%s", got)
	}
}

// -pipeline prints the per-pass epoch/rebuild/query report. Decision
// counters are backend-independent (identical answers drive identical
// passes); the rebuild column is the asymmetry the report exists to show:
// 0 for the checker across the whole instruction-editing tail, a fixed
// positive count for a set-producing backend on the same input.
func TestRunPipelineReport(t *testing.T) {
	p := writeTemp(t, loopSrc)
	got := capture(t, func() error { return runPipeline([]string{p}, "checker", true, 0) })
	for _, want := range []string{
		"pipeline backend=checker: 1 funcs, k=8, 0 stale rebuilds",
		"construct", "split-edges", "destruct", "regalloc",
		"1 phis eliminated, 1 copies, 0 spills",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("pipeline output missing %q:\n%s", want, got)
		}
	}
	// Same input through a set-producing backend: the destruct pass's copy
	// insertion and the φ elimination each stale the sets once before the
	// next query — exactly 2 rebuilds on this function.
	p2 := writeTemp(t, loopSrc)
	got2 := capture(t, func() error { return runPipeline([]string{p2}, "dataflow", true, 0) })
	if !strings.Contains(got2, "pipeline backend=dataflow: 1 funcs, k=8, 2 stale rebuilds") {
		t.Fatalf("dataflow pipeline should report exactly 2 stale rebuilds:\n%s", got2)
	}
}

// -pipeline accepts slot-form inputs: SSA construction is the first pass,
// and its instruction edits show up in the report.
func TestRunPipelineSlotForm(t *testing.T) {
	const slotSrc = `
func @s() {
b0:
  slots 1
  %c = const 7
  slotstore 0, %c
  br b1
b1:
  %l = slotload 0
  ret %l
}
`
	p := writeTemp(t, slotSrc)
	got := capture(t, func() error { return runPipeline([]string{p}, "checker", true, 0) })
	if !strings.Contains(got, "pipeline backend=checker: 1 funcs,") {
		t.Fatalf("slot-form pipeline failed:\n%s", got)
	}
	if !strings.Contains(got, "0 stale rebuilds") {
		t.Fatalf("checker pipeline should not rebuild:\n%s", got)
	}
}

// -regalloc composes with -q in whole-program mode too: queries answer
// first, then each function's assignment prints.
func TestRunProgramRegallocWithQueries(t *testing.T) {
	dir := writeProgram(t, map[string]string{"loop.ssair": loopSrc, "clamp.ssair": clampSrc})
	paths, _, _ := programArgs([]string{dir})
	got := capture(t, func() error {
		return runProgram(paths, false, "checker", true, false, 2, 4, nil, queryList{"out:%i@head@loop"}, false)
	})
	for _, want := range []string{"live-out(%i, head) = true", "regalloc @clamp: k=4:", "regalloc @loop: k=4:"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}
}

// The engine-tuning flag -parallel sets the precompute fan-out only:
// whole-program output must be byte-identical at every worker count.
func TestEngineTuningFlagsIdenticalOutput(t *testing.T) {
	dir := writeProgram(t, map[string]string{"loop.ssair": loopSrc, "clamp.ssair": clampSrc})
	paths, _, _ := programArgs([]string{dir})
	qs := queryList{"out:%i@head@loop", "in:%r@join@clamp"}
	plain := capture(t, func() error { return runProgram(paths, false, "checker", true, false, 1, 0, nil, qs, false) })
	tuned := capture(t, func() error { return runProgram(paths, false, "checker", true, false, 4, 0, nil, qs, false) })
	if plain != tuned {
		t.Errorf("-parallel changed program output:\n%s\nwant:\n%s", tuned, plain)
	}
}

// A -stats run ends with one "engine: ..." line — the consolidated
// Engine.Metrics snapshot. For a fixed program and query set the counts
// are deterministic, so the line is golden-testable: whole-program mode
// precomputes both functions (2 builds, 2 full computes) and answers the
// three queries through Oracles (the counted query path).
func TestRunProgramStatsEngineLine(t *testing.T) {
	dir := writeProgram(t, map[string]string{"loop.ssair": loopSrc, "clamp.ssair": clampSrc})
	paths, _, _ := programArgs([]string{dir})

	// Summary mode: no queries issued, everything else settled.
	got := capture(t, func() error {
		return runProgram(paths, false, "checker", true, true, 2, 0, nil, nil, false)
	})
	want := "engine: funcs=2 resident=2 builds=2 computes=2 queries=0 batches=0 rebuilds=0 quarantined=0\n"
	if !strings.Contains(got, want) {
		t.Errorf("summary-mode -stats output missing %q:\n%s", want, got)
	}

	// Query mode: each -q answer goes through an Oracle and is counted.
	qs := queryList{"%i@body@loop", "out:%x@entry@clamp", "in:%r@join@clamp"}
	got = capture(t, func() error {
		return runProgram(paths, false, "checker", true, true, 2, 0, nil, qs, false)
	})
	want = "engine: funcs=2 resident=2 builds=2 computes=2 queries=3 batches=0 rebuilds=0 quarantined=0\n"
	if !strings.Contains(got, want) {
		t.Errorf("query-mode -stats output missing %q:\n%s", want, got)
	}

	// Without -stats the line must not appear (the CI warm-start smoke
	// diffs non-snapshot output across runs).
	got = capture(t, func() error {
		return runProgram(paths, false, "checker", true, false, 2, 0, nil, nil, false)
	})
	if strings.Contains(got, "engine:") {
		t.Errorf("engine metrics line printed without -stats:\n%s", got)
	}
}

// Single-function mode routes the per-block set dump through an Oracle
// too, so -stats reports one build and the dump's query traffic.
func TestRunStatsEngineLine(t *testing.T) {
	p := writeTemp(t, loopSrc)
	got := capture(t, func() error {
		return run(p, false, "checker", true, true, 0, nil, nil)
	})
	// loopSrc has 6 result values (the parameter %n included) and 4
	// blocks; the dump asks live-in and live-out for each pair:
	// 6*4*2 = 48 queries.
	want := "engine: funcs=1 resident=1 builds=1 computes=1 queries=48 batches=0 rebuilds=0 quarantined=0\n"
	if !strings.Contains(got, want) {
		t.Errorf("-stats output missing %q:\n%s", want, got)
	}
}
