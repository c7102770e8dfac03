package backend

import (
	"strings"
	"testing"

	"fastliveness/internal/ir"
)

const stalenessSrc = `
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

// analyze runs the named backend on f.
func analyze(t *testing.T, name string, f *ir.Func) Result {
	t.Helper()
	b, err := Get(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(f)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.Analyze(f, p)
	if err != nil {
		t.Fatalf("backend %s: %v", name, err)
	}
	return res
}

// analyzeAll runs every registered backend on f.
func analyzeAll(t *testing.T, f *ir.Func) map[string]Result {
	t.Helper()
	out := map[string]Result{}
	for _, name := range Names() {
		out[name] = analyze(t, name, f)
	}
	return out
}

// Every Result must record the epochs it was computed at, and Stale must
// apply the result's invalidation class: instruction edits stale exactly
// the set-producing results, CFG edits stale everything.
func TestStalePerInvalidationClass(t *testing.T) {
	f := ir.MustParse(stalenessSrc)
	results := analyzeAll(t, f)
	for name, res := range results {
		if res.Epochs() != EpochsOf(f) {
			t.Errorf("backend %s: recorded epochs %+v, function at %+v", name, res.Epochs(), EpochsOf(f))
		}
		if Stale(res, f) {
			t.Errorf("backend %s: fresh result reads as stale", name)
		}
	}

	// Instruction-only edit: a new use of %one in exit.
	one, exit := f.ValueByName("one"), f.BlockByName("exit")
	exit.NewValue(ir.OpAdd, one, one)
	for name, res := range results {
		wantStale := res.Invalidation() == InvalidatedByAnyEdit
		if got := Stale(res, f); got != wantStale {
			t.Errorf("backend %s (%s) after instruction edit: Stale = %v, want %v",
				name, res.Invalidation(), got, wantStale)
		}
	}

	// CFG edit: split an edge. Now everything is stale, checker included.
	f.Entry().SplitEdge(0)
	for name, res := range results {
		if !Stale(res, f) {
			t.Errorf("backend %s: not stale after a CFG edit", name)
		}
	}
}

// The fail-closed debug wrapper must answer normally while fresh and
// panic on the first query after an edit of the invalidating class.
func TestCheckedFailsClosed(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			f := ir.MustParse(stalenessSrc)
			res := analyze(t, name, f)
			checked := Checked(res, f)
			one, exit := f.ValueByName("one"), f.BlockByName("exit")
			if checked.IsLiveIn(one, exit) {
				t.Fatal("unexpected live-in answer on the fresh program")
			}

			// Instruction edit: the checker-backed wrapper keeps serving
			// (and sees the new use); set-producing wrappers fail closed.
			exit.NewValue(ir.OpAdd, one, one)
			if res.Invalidation() == InvalidatedByCFGChanges {
				if !checked.IsLiveIn(one, exit) {
					t.Fatal("checker-backed Checked should survive the instruction edit and see the new use")
				}
			} else {
				mustPanicStale(t, "instruction edit", func() { checked.IsLiveIn(one, exit) })
			}

			// CFG edit: every backend's wrapper fails closed, on queries
			// and set enumeration alike.
			f.Entry().SplitEdge(0)
			mustPanicStale(t, "CFG edit", func() { checked.IsLiveOut(one, exit) })
			mustPanicStale(t, "CFG edit", func() { checked.LiveInSet(exit) })
		})
	}
}

func mustPanicStale(t *testing.T, stage string, query func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: stale query did not panic", stage)
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "stale") {
			t.Fatalf("%s: panic %v does not name staleness", stage, r)
		}
	}()
	query()
}
