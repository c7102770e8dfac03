package dataflow

import (
	"slices"
	"testing"

	"fastliveness/internal/ir"
	"fastliveness/internal/pervar"
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

func analyzeLoop(t *testing.T) (*ir.Func, *Result) {
	t.Helper()
	f := ir.MustParse(loopSrc)
	if err := ir.Verify(f); err != nil {
		t.Fatal(err)
	}
	return f, Analyze(f)
}

func blk(f *ir.Func, name string) *ir.Block { return f.BlockByName(name) }
func val(f *ir.Func, name string) *ir.Value { return f.ValueByName(name) }

func TestLoopLiveness(t *testing.T) {
	f, r := analyzeLoop(t)
	n := val(f, "n")
	one := val(f, "one")
	zero := val(f, "zero")
	i := val(f, "i")
	inext := val(f, "inext")
	cmp := val(f, "cmp")

	entry, head, body, exit := blk(f, "entry"), blk(f, "head"), blk(f, "body"), blk(f, "exit")

	// n is live through the whole loop: used by cmp in head every
	// iteration.
	if !r.IsLiveOut(n, entry) || !r.IsLiveIn(n, head) || !r.IsLiveIn(n, body) || !r.IsLiveOut(n, body) {
		t.Fatal("n liveness wrong")
	}
	if r.IsLiveIn(n, exit) {
		t.Fatal("n must not be live-in at exit")
	}
	// one is used in body only.
	if !r.IsLiveIn(one, head) || !r.IsLiveIn(one, body) || r.IsLiveIn(one, exit) {
		t.Fatal("one liveness wrong")
	}
	// zero is a φ argument used at entry (Definition 1): live nowhere as
	// live-in, not live-out of entry.
	if r.IsLiveOut(zero, entry) || r.IsLiveIn(zero, head) {
		t.Fatal("φ argument zero must be consumed inside entry")
	}
	// i: φ def in head. Not live-in at head. Used by cmp (head), by ret
	// control (exit) and by inext (body).
	if r.IsLiveIn(i, head) {
		t.Fatal("φ result must not be live-in at its block")
	}
	if !r.IsLiveOut(i, head) || !r.IsLiveIn(i, body) || !r.IsLiveIn(i, exit) {
		t.Fatal("i liveness wrong")
	}
	// inext is a φ argument used at body: live-in nowhere else, dead at
	// head.
	if r.IsLiveOut(inext, body) || r.IsLiveIn(inext, head) {
		t.Fatal("inext must be consumed inside body")
	}
	// cmp is the if control of head, used in head itself: dead outside.
	if r.IsLiveIn(cmp, body) || r.IsLiveOut(cmp, head) || r.IsLiveIn(cmp, head) {
		t.Fatal("cmp must be local to head")
	}
	if r.Iterations < 4 {
		t.Fatalf("solver did too few iterations: %d", r.Iterations)
	}
}

func TestLiveOutIsUnionOfSuccessorLiveIn(t *testing.T) {
	f, r := analyzeLoop(t)
	for i, b := range f.Blocks {
		want := make(map[int]bool)
		for _, e := range b.Succs {
			for _, id := range r.LiveIn[idxOf(t, f, e.B)].Elements() {
				want[id] = true
			}
		}
		got := r.LiveOut[i].Elements()
		if len(got) != len(want) {
			t.Fatalf("block %s: liveout %v vs union %v", b, got, want)
		}
		for _, id := range got {
			if !want[id] {
				t.Fatalf("block %s: liveout %v vs union %v", b, got, want)
			}
		}
	}
}

// A block added after the analysis is unknown to it: every query there
// answers false/nil, as pervar's do, instead of reading another block's
// sets.
func TestBlockAddedAfterAnalysis(t *testing.T) {
	f, r := analyzeLoop(t)
	pv := pervar.Analyze(f)
	nb := f.NewBlock(ir.BlockPlain)
	f.Values(func(v *ir.Value) {
		if got, want := r.IsLiveIn(v, nb), pv.IsLiveIn(v, nb); got != want {
			t.Errorf("IsLiveIn(%s, new block) = %v, pervar %v", v, got, want)
		}
		if got, want := r.IsLiveOut(v, nb), pv.IsLiveOut(v, nb); got != want {
			t.Errorf("IsLiveOut(%s, new block) = %v, pervar %v", v, got, want)
		}
	})
	if got, want := r.LiveInIDs(nb), pv.LiveInIDs(nb); !slices.Equal(got, want) {
		t.Errorf("LiveInIDs(new block) = %v, pervar %v", got, want)
	}
	if got, want := r.LiveOutIDs(nb), pv.LiveOutIDs(nb); !slices.Equal(got, want) {
		t.Errorf("LiveOutIDs(new block) = %v, pervar %v", got, want)
	}
}

func idxOf(t *testing.T, f *ir.Func, b *ir.Block) int {
	for i, x := range f.Blocks {
		if x == b {
			return i
		}
	}
	t.Fatal("block not found")
	return -1
}

func TestStraightLine(t *testing.T) {
	f := ir.MustParse(`
func @straight(%a, %b) {
b0:
  %s = add %a, %b
  br b1
b1:
  %u = mul %s, %s
  ret %u
}
`)
	r := Analyze(f)
	s := val(f, "s")
	a := val(f, "a")
	b0, b1 := blk(f, "b0"), blk(f, "b1")
	if !r.IsLiveOut(s, b0) || !r.IsLiveIn(s, b1) {
		t.Fatal("s should flow into b1")
	}
	if r.IsLiveOut(a, b0) || r.IsLiveIn(a, b1) {
		t.Fatal("a dies in b0")
	}
	if r.IsLiveIn(s, b0) {
		t.Fatal("s not live-in at its def block")
	}
	if r.AvgLiveIn() <= 0 {
		t.Fatal("AvgLiveIn should be positive")
	}
}

func TestDiamondPhi(t *testing.T) {
	f := ir.MustParse(`
func @diamond(%p) {
b0:
  %c1 = const 1
  %c2 = const 2
  if %p -> b1, b2
b1:
  %x = add %p, %c1
  br b3
b2:
  %y = add %p, %c2
  br b3
b3:
  %m = phi [%x, b1], [%y, b2]
  ret %m
}
`)
	r := Analyze(f)
	x, y, m := val(f, "x"), val(f, "y"), val(f, "m")
	b1, b2, b3 := blk(f, "b1"), blk(f, "b2"), blk(f, "b3")
	// φ args die in their predecessors.
	if r.IsLiveOut(x, b1) || r.IsLiveOut(y, b2) || r.IsLiveIn(x, b3) || r.IsLiveIn(y, b3) {
		t.Fatal("φ args must not cross into the φ block")
	}
	// x is not live anywhere in the other branch.
	if r.IsLiveIn(x, b2) || r.IsLiveOut(x, b2) {
		t.Fatal("x leaked into sibling branch")
	}
	if r.IsLiveIn(m, b3) {
		t.Fatal("φ result live-in at own block")
	}
}

func TestUnusedValueNeverLive(t *testing.T) {
	f := ir.MustParse(`
func @dead(%a) {
b0:
  %d = add %a, %a
  br b1
b1:
  ret %a
}
`)
	r := Analyze(f)
	d := val(f, "d")
	for _, b := range f.Blocks {
		if r.IsLiveIn(d, b) || r.IsLiveOut(d, b) {
			t.Fatalf("dead value live at %s", b)
		}
	}
}
