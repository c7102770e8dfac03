package fastliveness

import (
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"fastliveness/internal/dataflow"
	"fastliveness/internal/ir"
)

const backendLoopSrc = `
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

const backendIrrSrc = `
func @irr(%p) {
entry:
  %c = cmplt %p, %p
  if %c -> a, b
a:
  %x = add %p, %p
  br b
b:
  %y = add %p, %c
  if %y -> a, exit
exit:
  ret %p
}
`

// Config.Backend must select each registered backend by name, and every
// backend must answer identically to the default checker.
func TestConfigBackendSelection(t *testing.T) {
	f := ir.MustParse(backendLoopSrc)
	ref, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ref.Backend() != "checker" {
		t.Fatalf("default backend = %q, want checker", ref.Backend())
	}
	for _, name := range Backends() {
		live, err := Analyze(f, Config{Backend: name})
		if err != nil {
			t.Fatalf("backend %s: %v", name, err)
		}
		f.Values(func(v *ir.Value) {
			if !v.Op.HasResult() {
				return
			}
			for _, b := range f.Blocks {
				if live.IsLiveIn(v, b) != ref.IsLiveIn(v, b) ||
					live.IsLiveOut(v, b) != ref.IsLiveOut(v, b) {
					t.Fatalf("backend %s disagrees with checker at (%s, %s)", name, v, b)
				}
			}
		})
	}
	if _, err := Analyze(f, Config{Backend: "frobnicate"}); err == nil {
		t.Fatal("unknown backend name should fail Analyze")
	}
}

// Every backend analyzes irreducible CFGs and answers there exactly as the
// default checker does; Reducible reports the CFG class whatever backend
// serves the handle.
func TestConfigBackendIrreducible(t *testing.T) {
	f := ir.MustParse(backendIrrSrc)
	ref, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"checker", "dataflow", "lao", "pervar"} {
		live, err := Analyze(f, Config{Backend: name})
		if err != nil {
			t.Fatalf("backend %s on an irreducible CFG: %v", name, err)
		}
		if live.Backend() != name {
			t.Fatalf("Config.Backend %q served by %q", name, live.Backend())
		}
		if live.Reducible() {
			t.Fatalf("backend %s: Reducible() should be false for the irreducible test program", name)
		}
		f.Values(func(v *ir.Value) {
			if !v.Op.HasResult() {
				return
			}
			for _, b := range f.Blocks {
				if live.IsLiveIn(v, b) != ref.IsLiveIn(v, b) ||
					live.IsLiveOut(v, b) != ref.IsLiveOut(v, b) {
					t.Fatalf("backend %s disagrees with checker at (%s, %s)", name, v, b)
				}
			}
		})
	}
}

// checkEnumeration asserts that LiveIn/LiveOut hold exactly the values the
// per-value queries accept, and exactly the values a fresh data-flow
// analysis of the current program finds live, at every block.
func checkEnumeration(t *testing.T, f *ir.Func, live *Liveness) {
	t.Helper()
	truth := dataflow.Analyze(f)
	for _, b := range f.Blocks {
		in := make(map[*ir.Value]bool)
		for _, v := range live.LiveIn(b) {
			in[v] = true
		}
		out := make(map[*ir.Value]bool)
		for _, v := range live.LiveOut(b) {
			out[v] = true
		}
		f.Values(func(v *ir.Value) {
			if !v.Op.HasResult() {
				return
			}
			if in[v] != live.IsLiveIn(v, b) || in[v] != truth.IsLiveIn(v, b) {
				t.Fatalf("%s: LiveIn(%s) has %s = %v; IsLiveIn says %v, dataflow %v",
					f.Name, b, v, in[v], live.IsLiveIn(v, b), truth.IsLiveIn(v, b))
			}
			if out[v] != live.IsLiveOut(v, b) || out[v] != truth.IsLiveOut(v, b) {
				t.Fatalf("%s: LiveOut(%s) has %s = %v; IsLiveOut says %v, dataflow %v",
					f.Name, b, v, out[v], live.IsLiveOut(v, b), truth.IsLiveOut(v, b))
			}
		})
	}
}

// LiveIn/LiveOut enumeration delegates to the per-variable set engine; the
// result must hold exactly the values the per-value queries accept, on
// reducible and irreducible CFGs alike.
func TestEnumerationMatchesQueries(t *testing.T) {
	for _, src := range []string{backendLoopSrc, backendIrrSrc} {
		f := ir.MustParse(src)
		live, err := Analyze(f, Config{})
		if err != nil {
			t.Fatal(err)
		}
		checkEnumeration(t, f, live)
	}
}

// The enumeration sets are cached, but keyed by the function's edit
// epochs: after an instruction edit the next LiveIn/LiveOut call must
// rebuild them transparently, while checker queries track the edit with
// no rebuild at all — on reducible and irreducible CFGs alike. Each case
// names a value that is not live-in at exit until the edit adds a use of
// it there.
func TestEnumerationTracksInstructionEdits(t *testing.T) {
	for _, tc := range []struct{ src, value string }{
		{backendLoopSrc, "one"},
		{backendIrrSrc, "c"},
	} {
		f := ir.MustParse(tc.src)
		live, err := Analyze(f, Config{})
		if err != nil {
			t.Fatal(err)
		}
		v := f.ValueByName(tc.value)
		exit := f.BlockByName("exit")
		inExit := func() bool { return slices.Contains(live.LiveIn(exit), v) }
		if inExit() {
			t.Fatalf("%s: %s should not be live-in at exit before the edit", f.Name, v)
		}
		checkEnumeration(t, f, live)
		// Instruction-only edit: a new use of v inside exit. The checker's
		// precomputation survives it (the paper's headline property)...
		added := exit.NewValue(ir.OpAdd, v, v)
		if live.Stale() {
			t.Fatalf("%s: an instruction edit must not stale the checker analysis", f.Name)
		}
		if !live.IsLiveIn(v, exit) {
			t.Fatalf("%s: checker query should see the new use without re-analyzing", f.Name)
		}
		// ...and the enumeration cache notices the epoch moved and rebuilds
		// on its own.
		if !inExit() {
			t.Fatalf("%s: enumeration should track the instruction edit automatically", f.Name)
		}
		checkEnumeration(t, f, live)
		// Reverting the edit moves the epoch again; enumeration follows.
		exit.RemoveValue(added)
		if inExit() {
			t.Fatalf("%s: enumeration should track the reverting edit too", f.Name)
		}
		checkEnumeration(t, f, live)
	}
}

// Automatic rebuild must also fire when the primary backend itself
// materializes sets (dataflow, lao, pervar): there the enumeration is
// served by the analysis result, and only a fresh set analysis can track
// an edit. The primary query path of such a backend is stale after the
// edit — Stale must say so.
func TestEnumerationTracksEditsWithSetProducingBackend(t *testing.T) {
	for _, name := range []string{"dataflow", "lao", "pervar"} {
		f := ir.MustParse(backendLoopSrc)
		live, err := Analyze(f, Config{Backend: name})
		if err != nil {
			t.Fatal(err)
		}
		one := f.ValueByName("one")
		exit := f.BlockByName("exit")
		if slices.Contains(live.LiveIn(exit), one) {
			t.Fatalf("%s: the constant one should not be live-in at exit before the edit", name)
		}
		if live.Stale() {
			t.Fatalf("%s: freshly analyzed handle should not be stale", name)
		}
		exit.NewValue(ir.OpAdd, one, one)
		if !live.Stale() {
			t.Fatalf("%s: an instruction edit must stale a set-producing analysis", name)
		}
		if !slices.Contains(live.LiveIn(exit), one) {
			t.Fatalf("%s: enumeration should rebuild against the edited program automatically", name)
		}
	}
}

// Enumeration across a CFG edit must fail closed: the cached sets and
// the analysis's CFG preparation both describe a CFG that no longer
// exists, and a silent rebuild from them would stamp wrong answers as
// fresh. (Engine-held handles never hit this: the engine rebuilds the
// whole analysis first.)
func TestEnumerationFailsClosedOnCFGEdit(t *testing.T) {
	f := ir.MustParse(backendLoopSrc)
	live, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	exit := f.BlockByName("exit")
	live.LiveIn(exit) // cache the enumeration
	f.Entry().SplitEdge(0)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("LiveIn after a CFG edit should panic instead of answering from the dead CFG")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "CFG edit") {
			t.Fatalf("panic %v does not name the CFG edit", r)
		}
	}()
	live.LiveIn(exit)
}

// Liveness.Interfere on one shared handle must give every goroutine the
// answers a single caller gets; the race detector checks that queries share
// no scratch state.
func TestQuerierInterfereConcurrent(t *testing.T) {
	f := ir.MustParse(backendLoopSrc)
	live, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	var values []*ir.Value
	f.Values(func(v *ir.Value) {
		if v.Op.HasResult() {
			values = append(values, v)
		}
	})
	type pair struct{ x, y *ir.Value }
	rng := rand.New(rand.NewSource(42))
	pairs := make([]pair, 512)
	want := make([]bool, len(pairs))
	for i := range pairs {
		pairs[i] = pair{values[rng.Intn(len(values))], values[rng.Intn(len(values))]}
		want[i] = live.Interfere(pairs[i].x, pairs[i].y)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, p := range pairs {
				if got := live.Interfere(p.x, p.y); got != want[i] {
					t.Errorf("Interfere(%s, %s) = %v, want %v", p.x, p.y, got, want[i])
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Engine.MemoryBytes and Liveness.Backend are documented concurrent-safe
// even while a handle owner triggers the lazy first enumeration; the race
// detector checks the synchronization on the cached enumeration result.
func TestEngineMemoryConcurrentWithEnumeration(t *testing.T) {
	funcs := []*ir.Func{ir.MustParse(backendLoopSrc), ir.MustParse(backendIrrSrc)}
	eng, err := AnalyzeProgram(funcs, EngineConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for _, f := range funcs {
		live, err := eng.Liveness(f)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(2)
		go func() {
			defer wg.Done()
			for _, b := range live.Func().Blocks {
				live.LiveIn(b)
				live.LiveOut(b)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				eng.MemoryBytes()
				live.Backend()
			}
		}()
	}
	wg.Wait()
	for _, f := range funcs {
		live, err := eng.Liveness(f)
		if err != nil {
			t.Fatal(err)
		}
		if live.MemoryBytes() <= 0 {
			t.Errorf("%s (backend %s) reports %d memory bytes", f.Name, live.Backend(), live.MemoryBytes())
		}
	}
}
