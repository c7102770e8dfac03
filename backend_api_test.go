package fastliveness

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

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

// On irreducible CFGs the loops backend fails loudly while auto silently
// falls back to the checker.
func TestConfigBackendIrreducible(t *testing.T) {
	f := ir.MustParse(backendIrrSrc)
	if _, err := Analyze(f, Config{Backend: "loops"}); err == nil {
		t.Fatal("loops backend should reject an irreducible CFG")
	}
	live, err := Analyze(f, Config{Backend: "auto"})
	if err != nil {
		t.Fatal(err)
	}
	if live.Backend() != "checker" {
		t.Fatalf("auto on irreducible CFG picked %q, want checker", live.Backend())
	}
	if live.Reducible() {
		t.Fatal("Reducible() should be false for the irreducible test program")
	}
}

// LiveIn/LiveOut enumeration delegates to a set-producing backend; the
// result must hold exactly the values the per-value queries accept, on
// reducible (loop-forest sets) and irreducible (data-flow sets) CFGs alike.
func TestEnumerationMatchesQueries(t *testing.T) {
	for _, src := range []string{backendLoopSrc, backendIrrSrc} {
		f := ir.MustParse(src)
		live, err := Analyze(f, Config{})
		if err != nil {
			t.Fatal(err)
		}
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
				if in[v] != live.IsLiveIn(v, b) {
					t.Fatalf("%s: LiveIn(%s) and IsLiveIn(%s) disagree", f.Name, b, v)
				}
				if out[v] != live.IsLiveOut(v, b) {
					t.Fatalf("%s: LiveOut(%s) and IsLiveOut(%s) disagree", f.Name, b, v)
				}
			})
		}
	}
}

// The enumeration sets are cached, but keyed by the function's edit
// epochs: after an instruction edit the next LiveIn/LiveOut call must
// rebuild them transparently, while checker queries track the edit with
// no rebuild at all.
func TestEnumerationTracksInstructionEdits(t *testing.T) {
	f := ir.MustParse(backendLoopSrc)
	live, err := Analyze(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	one := f.ValueByName("one")
	exit := f.BlockByName("exit")
	inExit := func(vs []*ir.Value) bool {
		for _, v := range vs {
			if v == one {
				return true
			}
		}
		return false
	}
	if inExit(live.LiveIn(exit)) {
		t.Fatal("the constant one should not be live-in at exit before the edit")
	}
	// Instruction-only edit: a new use of %one inside exit. The checker's
	// precomputation survives it (the paper's headline property)...
	added := exit.NewValue(ir.OpAdd, one, one)
	if live.Stale() {
		t.Fatal("an instruction edit must not stale the checker analysis")
	}
	if !live.IsLiveIn(one, exit) {
		t.Fatal("checker query should see the new use without re-analyzing")
	}
	// ...and the enumeration cache notices the epoch moved and rebuilds on
	// its own.
	if !inExit(live.LiveIn(exit)) {
		t.Fatal("enumeration should track the instruction edit automatically")
	}
	// Reverting the edit moves the epoch again; enumeration follows.
	exit.RemoveValue(added)
	if inExit(live.LiveIn(exit)) {
		t.Fatal("enumeration should track the reverting edit too")
	}
}

// Automatic rebuild must also fire when the primary backend itself
// materializes sets (loops/dataflow/...): there the enumeration is served
// by the analysis result, and only a fresh set analysis can track an
// edit. The primary query path of such a backend is stale after the edit
// — Stale must say so.
func TestEnumerationTracksEditsWithSetProducingBackend(t *testing.T) {
	f := ir.MustParse(backendLoopSrc)
	live, err := Analyze(f, Config{Backend: "loops"})
	if err != nil {
		t.Fatal(err)
	}
	one := f.ValueByName("one")
	exit := f.BlockByName("exit")
	inExit := func(vs []*ir.Value) bool {
		for _, v := range vs {
			if v == one {
				return true
			}
		}
		return false
	}
	if inExit(live.LiveIn(exit)) {
		t.Fatal("the constant one should not be live-in at exit before the edit")
	}
	if live.Stale() {
		t.Fatal("freshly analyzed handle should not be stale")
	}
	exit.NewValue(ir.OpAdd, one, one)
	if !live.Stale() {
		t.Fatal("an instruction edit must stale a set-producing analysis")
	}
	if !inExit(live.LiveIn(exit)) {
		t.Fatal("enumeration should rebuild against the edited program automatically")
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
}

// The engine's handles must report the per-backend selection mix: with
// "auto", a program mixing reducible and irreducible functions lands on
// both the loops and checker engines.
func TestEngineStatsReportsSelectionMix(t *testing.T) {
	funcs := []*ir.Func{ir.MustParse(backendLoopSrc), ir.MustParse(backendIrrSrc)}
	eng, err := AnalyzeProgram(funcs, EngineConfig{Config: Config{Backend: "auto"}})
	if err != nil {
		t.Fatal(err)
	}
	mix := make(map[string]int)
	for _, f := range funcs {
		live, err := eng.Liveness(f)
		if err != nil {
			t.Fatal(err)
		}
		mix[live.Backend()]++
		if live.MemoryBytes() <= 0 {
			t.Errorf("%s (backend %s) reports %d memory bytes", f.Name, live.Backend(), live.MemoryBytes())
		}
	}
	if mix["loops"] != 1 || mix["checker"] != 1 {
		t.Fatalf("selection mix %v, want one loops and one checker analysis", mix)
	}
}
