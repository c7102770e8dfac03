package ir

import (
	"sort"
	"strings"
	"testing"
)

// buildDiamond constructs:
//
//	   b0 (if)
//	  /        \
//	b1          b2
//	  \        /
//	   b3: phi, ret
func buildDiamond(t *testing.T) (*Func, map[string]*Value) {
	t.Helper()
	f := NewFunc("diamond")
	b0 := f.NewBlock(BlockIf)
	b1 := f.NewBlock(BlockPlain)
	b2 := f.NewBlock(BlockPlain)
	b3 := f.NewBlock(BlockRet)

	p := b0.NewValueI(OpParam, 0)
	c1 := b0.NewValueI(OpConst, 1)
	c2 := b0.NewValueI(OpConst, 2)
	b0.SetControl(p)
	b0.AddEdgeTo(b1)
	b0.AddEdgeTo(b2)

	x := b1.NewValue(OpAdd, p, c1)
	b1.AddEdgeTo(b3)
	y := b2.NewValue(OpAdd, p, c2)
	b2.AddEdgeTo(b3)

	phi := b3.NewValue(OpPhi, x, y)
	b3.SetControl(phi)

	if err := Verify(f); err != nil {
		t.Fatalf("diamond does not verify: %v", err)
	}
	return f, map[string]*Value{"p": p, "c1": c1, "c2": c2, "x": x, "y": y, "phi": phi}
}

func TestBuildAndVerifyDiamond(t *testing.T) {
	f, vs := buildDiamond(t)
	if f.NumBlocks() != 4 || f.NumValues() != 6 {
		t.Fatalf("counts: blocks=%d values=%d", f.NumBlocks(), f.NumValues())
	}
	if got := vs["p"].NumUses(); got != 3 { // control of b0, x, y
		t.Fatalf("p has %d uses, want 3", got)
	}
	if got := vs["phi"].NumUses(); got != 1 { // ret control
		t.Fatalf("phi has %d uses, want 1", got)
	}
}

func TestEdgeCrossIndices(t *testing.T) {
	f, _ := buildDiamond(t)
	for _, b := range f.Blocks {
		for i, e := range b.Succs {
			if e.B.Preds[e.I].B != b || e.B.Preds[e.I].I != i {
				t.Fatalf("cross index broken at %s->%s", b, e.B)
			}
		}
	}
}

func TestUseBlockIDsPhiPlacement(t *testing.T) {
	f, vs := buildDiamond(t)
	b1 := f.Blocks[1]
	b2 := f.Blocks[2]
	// Per Definition 1 the φ's arguments are used at the predecessors, not
	// at the φ block.
	got := vs["x"].UseBlockIDs(nil)
	if len(got) != 1 || got[0] != b1.ID {
		t.Fatalf("x use blocks = %v, want [%d]", got, b1.ID)
	}
	got = vs["y"].UseBlockIDs(nil)
	if len(got) != 1 || got[0] != b2.ID {
		t.Fatalf("y use blocks = %v, want [%d]", got, b2.ID)
	}
	// p is used by b0's control and by x (in b1) and y (in b2).
	got = vs["p"].UseBlockIDs(nil)
	sort.Ints(got)
	want := []int{0, 1, 2}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("p use blocks = %v, want %v", got, want)
	}
}

func TestSetArgMaintainsUses(t *testing.T) {
	f, vs := buildDiamond(t)
	x := vs["x"]
	if x.Args[1] != vs["c1"] {
		t.Fatal("precondition: x arg1 is c1")
	}
	x.SetArg(1, vs["c2"])
	if err := Verify(f); err != nil {
		t.Fatalf("after SetArg: %v", err)
	}
	if vs["c1"].NumUses() != 0 {
		t.Fatalf("c1 still has %d uses", vs["c1"].NumUses())
	}
	if vs["c2"].NumUses() != 2 {
		t.Fatalf("c2 has %d uses, want 2", vs["c2"].NumUses())
	}
}

func TestReplaceUsesWith(t *testing.T) {
	f, vs := buildDiamond(t)
	// Replace all uses of p with c1: covers value args and block controls.
	vs["p"].ReplaceUsesWith(vs["c1"])
	if err := Verify(f); err != nil {
		t.Fatalf("after ReplaceUsesWith: %v", err)
	}
	if vs["p"].NumUses() != 0 {
		t.Fatalf("p still used %d times", vs["p"].NumUses())
	}
	if f.Blocks[0].Control != vs["c1"] {
		t.Fatal("control not rewritten")
	}
	if vs["x"].Args[0] != vs["c1"] || vs["y"].Args[0] != vs["c1"] {
		t.Fatal("args not rewritten")
	}
	// Self-replacement is a no-op.
	n := vs["c1"].NumUses()
	vs["c1"].ReplaceUsesWith(vs["c1"])
	if vs["c1"].NumUses() != n {
		t.Fatal("self ReplaceUsesWith changed use count")
	}
}

func TestRemoveValue(t *testing.T) {
	f, vs := buildDiamond(t)
	vs["p"].ReplaceUsesWith(vs["c1"])
	f.Blocks[0].RemoveValue(vs["p"])
	if err := Verify(f); err != nil {
		t.Fatalf("after RemoveValue: %v", err)
	}
	for _, v := range f.Blocks[0].Values {
		if v == vs["p"] {
			t.Fatal("p still in block")
		}
	}
	// Removing a value that still has uses must panic.
	defer func() {
		if recover() == nil {
			t.Fatal("RemoveValue with live uses should panic")
		}
	}()
	f.Blocks[3].RemoveValue(vs["phi"])
}

func TestInsertValueFrontAndAfterPhis(t *testing.T) {
	f, vs := buildDiamond(t)
	b3 := f.Blocks[3]
	phi2 := b3.InsertValueFront(OpPhi, vs["x"], vs["y"])
	if b3.Values[0] != phi2 {
		t.Fatal("InsertValueFront did not place at front")
	}
	cp := b3.InsertValueAfterPhis(OpCopy, phi2)
	if b3.Values[2] != cp {
		t.Fatalf("InsertValueAfterPhis placed at %d", b3.ValueIndex(cp))
	}
	if len(b3.Phis()) != 2 {
		t.Fatalf("Phis len = %d, want 2", len(b3.Phis()))
	}
	if err := Verify(f); err != nil {
		t.Fatalf("after inserts: %v", err)
	}
}

func TestSplitEdgePreservesPhiIndices(t *testing.T) {
	f, vs := buildDiamond(t)
	b0 := f.Blocks[0]
	b3 := f.Blocks[3]
	phi := vs["phi"]
	wantArg0 := phi.Args[0]
	// Split b1->b3 (b1 is b0.Succs[0]).
	b1 := b0.Succs[0].B
	e := b1.SplitEdge(0)
	if err := Verify(f); err != nil {
		t.Fatalf("after SplitEdge: %v", err)
	}
	if e.Preds[0].B != b1 || e.Succs[0].B != b3 {
		t.Fatal("split block wired wrong")
	}
	if phi.Args[0] != wantArg0 {
		t.Fatal("φ argument moved during edge split")
	}
	if b3.Preds[phi.Block.Preds[0].I].B != e && b3.Preds[0].B != e {
		t.Fatal("b3 pred not replaced by split block")
	}
}

func TestSplitCriticalEdges(t *testing.T) {
	// b0 -if-> {b1, b2}; b1 and b2 both jump to b3; additionally b0 -> b3
	// directly making (b0,b3) critical.
	f := NewFunc("crit")
	b0 := f.NewBlock(BlockIf)
	b1 := f.NewBlock(BlockPlain)
	b3 := f.NewBlock(BlockRet)
	c := b0.NewValueI(OpConst, 0)
	b0.SetControl(c)
	b0.AddEdgeTo(b1)
	b0.AddEdgeTo(b3) // critical: b0 has 2 succs, b3 has 2 preds
	b1.AddEdgeTo(b3)
	if err := Verify(f); err != nil {
		t.Fatalf("precondition: %v", err)
	}
	n := f.SplitCriticalEdges()
	if n != 1 {
		t.Fatalf("split %d edges, want 1", n)
	}
	if err := Verify(f); err != nil {
		t.Fatalf("after split: %v", err)
	}
	for _, b := range f.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for _, e := range b.Succs {
			if len(e.B.Preds) >= 2 {
				t.Fatalf("critical edge %s->%s remains", b, e.B)
			}
		}
	}
}

func TestVerifyCatchesPhiAfterNonPhi(t *testing.T) {
	f, vs := buildDiamond(t)
	b3 := f.Blocks[3]
	b3.NewValue(OpCopy, vs["phi"])       // non-φ
	b3.NewValue(OpPhi, vs["x"], vs["y"]) // φ after non-φ: invalid
	if err := Verify(f); err == nil {
		t.Fatal("Verify accepted φ after non-φ")
	}
}

func TestVerifyCatchesPhiArity(t *testing.T) {
	f, vs := buildDiamond(t)
	phi := vs["phi"]
	phi.AddArg(vs["c1"]) // now 3 args for 2 preds
	if err := Verify(f); err == nil {
		t.Fatal("Verify accepted φ arity mismatch")
	}
}

func TestVerifyCatchesEntryPreds(t *testing.T) {
	f, _ := buildDiamond(t)
	f.Blocks[3].Kind = BlockPlain
	f.Blocks[3].SetControl(nil)
	f.Blocks[3].AddEdgeTo(f.Blocks[0])
	if err := Verify(f); err == nil {
		t.Fatal("Verify accepted entry block with preds")
	}
}

func TestVerifyCatchesKindArity(t *testing.T) {
	f := NewFunc("bad")
	b := f.NewBlock(BlockPlain) // plain with no successor
	_ = b
	if err := Verify(f); err == nil {
		t.Fatal("Verify accepted plain block without successor")
	}
}

func TestVerifyCatchesBrokenUseList(t *testing.T) {
	f, vs := buildDiamond(t)
	// Corrupt the use list directly.
	vs["c1"].uses = nil
	if err := Verify(f); err == nil {
		t.Fatal("Verify accepted corrupted use list")
	}
}

func TestVerifyCatchesSlotRange(t *testing.T) {
	f := NewFunc("slots")
	b := f.NewBlock(BlockRet)
	f.NumSlots = 2
	b.NewValueI(OpSlotLoad, 5)
	if err := Verify(f); err == nil {
		t.Fatal("Verify accepted out-of-range slot")
	}
}

func TestVerifyCatchesArgOfResultless(t *testing.T) {
	f := NewFunc("void")
	b := f.NewBlock(BlockRet)
	f.NumSlots = 1
	c := b.NewValueI(OpConst, 1)
	st := b.NewValueI(OpSlotStore, 0, c)
	b.NewValue(OpCopy, st) // uses a result-less value
	if err := Verify(f); err == nil {
		t.Fatal("Verify accepted use of result-less value")
	}
}

// One negative case per Verify invariant not covered above: each corrupts
// a valid function in one place and expects the violation's message.
func TestVerifyCatchesViolations(t *testing.T) {
	detached := func(b *Block) *Value {
		d := b.NewValueI(OpConst, 7)
		b.RemoveValue(d)
		return d
	}
	for _, tc := range []struct {
		name    string
		corrupt func(f *Func, vs map[string]*Value)
		want    string
	}{
		{"detached arg", func(f *Func, vs map[string]*Value) {
			vs["x"].Args[1] = detached(f.Blocks[1])
			vs["c1"].uses = nil
		}, "references detached value"},
		{"detached control", func(f *Func, vs map[string]*Value) {
			f.Blocks[3].Control = detached(f.Blocks[3])
			vs["phi"].uses = nil
		}, "b3 control references detached value"},
		{"stray record from detached user", func(f *Func, vs map[string]*Value) {
			w := f.Blocks[1].NewValue(OpCopy, vs["p"])
			f.Blocks[1].RemoveValue(w)
			vs["p"].uses[0] = Use{User: w, Index: 0}
		}, "has stray use record"},
		{"duplicate value ID", func(f *Func, vs map[string]*Value) {
			vs["y"].ID = vs["x"].ID
		}, "duplicate value ID"},
		{"duplicate block ID", func(f *Func, vs map[string]*Value) {
			f.Blocks[2].ID = f.Blocks[1].ID
		}, "duplicate block ID"},
		{"value in wrong block", func(f *Func, vs map[string]*Value) {
			vs["x"].Block = f.Blocks[2]
		}, "in b1 has Block=b2"},
		{"broken succ cross-index", func(f *Func, vs map[string]*Value) {
			f.Blocks[0].Succs[1].I = 1
		}, "edge b0->b2: succ cross-index broken"},
		{"broken pred cross-index", func(f *Func, vs map[string]*Value) {
			f.Blocks[3].Preds = append(f.Blocks[3].Preds, Edge{f.Blocks[2], 0})
		}, "edge b3<-b2: pred cross-index broken"},
		{"param outside entry", func(f *Func, vs map[string]*Value) {
			f.Blocks[1].NewValueI(OpParam, 1)
		}, "outside entry block"},
		{"nil arg", func(f *Func, vs map[string]*Value) {
			vs["x"].Args[1] = nil
		}, "arg 1 is nil"},
		{"missing use record", func(f *Func, vs map[string]*Value) {
			vs["c1"].uses = nil
		}, "has 0 use records, want 1"},
		{"extra use record", func(f *Func, vs map[string]*Value) {
			vs["p"].uses = append(vs["p"].uses, vs["p"].uses[0])
		}, "has 4 use records, want 3"},
		{"duplicate use record", func(f *Func, vs map[string]*Value) {
			// x = add p, c1 becomes add p, p with both records naming
			// (x, 0): the counts match and each record is valid on its
			// own, but (x, 1) has none.
			vs["x"].SetArg(1, vs["p"])
			for i, u := range vs["p"].uses {
				if u.User == vs["x"] && u.Index == 1 {
					vs["p"].uses[i].Index = 0
				}
			}
		}, "has duplicate use record"},
		{"duplicate record in a two-record list", func(f *Func, vs map[string]*Value) {
			// y = add p, c2 becomes add c2, c2, both records naming (y, 1).
			vs["y"].SetArg(0, vs["c2"])
			for i := range vs["c2"].uses {
				vs["c2"].uses[i].Index = 1
			}
		}, "has duplicate use record"},
		// With several violations, the order Verify's doc gives.
		{"wrong-length list ahead of a later stray record", func(f *Func, vs map[string]*Value) {
			vs["c1"].uses = nil
			vs["x"].uses[0] = Use{User: vs["y"], Index: 0}
		}, "has 0 use records, want 1"},
		{"stray record ahead of a later wrong-length list", func(f *Func, vs map[string]*Value) {
			vs["x"].uses[0] = Use{User: vs["y"], Index: 0}
			vs["phi"].uses = nil
		}, "has stray use record"},
		{"detached arg ahead of a later wrong-length list", func(f *Func, vs map[string]*Value) {
			vs["x"].Args[1] = detached(f.Blocks[1])
			vs["c1"].uses = nil
			vs["phi"].uses = nil
		}, "references detached value"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, vs := buildDiamond(t)
			tc.corrupt(f, vs)
			err := Verify(f)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Verify = %v, want an error containing %q", err, tc.want)
			}
		})
	}
}

func TestBlockAndValueNames(t *testing.T) {
	f := NewFunc("names")
	b := f.NewBlock(BlockRet)
	if b.String() != "b0" {
		t.Fatalf("default block name = %q", b)
	}
	b.Name = "entry"
	if b.String() != "entry" {
		t.Fatalf("named block = %q", b)
	}
	v := b.NewValueI(OpConst, 3)
	if v.String() != "%v0" {
		t.Fatalf("default value name = %q", v)
	}
	v.Name = "x"
	if v.String() != "%x" {
		t.Fatalf("named value = %q", v)
	}
	if f.BlockByName("entry") != b || f.BlockByName("zz") != nil {
		t.Fatal("BlockByName broken")
	}
	if f.ValueByName("x") != v || f.ValueByName("zz") != nil {
		t.Fatal("ValueByName broken")
	}
}

func TestOpTable(t *testing.T) {
	if OpByName("add") != OpAdd || OpByName("phi") != OpPhi {
		t.Fatal("OpByName lookup broken")
	}
	if OpByName("nosuchop") != OpInvalid {
		t.Fatal("OpByName should return OpInvalid for unknown")
	}
	if OpByName("invalid") != OpInvalid {
		t.Fatal("OpByName must not resolve the invalid op")
	}
	if OpAdd.String() != "add" || OpAdd.ArgLen() != 2 || !OpAdd.HasResult() {
		t.Fatal("OpAdd metadata wrong")
	}
	if OpSlotStore.HasResult() {
		t.Fatal("slotstore must not have a result")
	}
	if OpPhi.ArgLen() != -1 {
		t.Fatal("phi should be variadic")
	}
	for _, k := range []BlockKind{BlockPlain, BlockIf, BlockSwitch, BlockRet} {
		if k.String() == "" {
			t.Fatal("empty kind name")
		}
	}
}

func TestInsertValueAt(t *testing.T) {
	f, vs := buildDiamond(t)
	b1 := f.Blocks[1]
	i := b1.ValueIndex(vs["x"])
	neg := b1.InsertValueAt(i+1, OpNeg, 0, vs["x"])
	if b1.Values[i+1] != neg {
		t.Fatalf("InsertValueAt placed at %d, want %d", b1.ValueIndex(neg), i+1)
	}
	st := b1.InsertValueAt(i+2, OpSlotStore, 0, neg)
	if b1.Values[i+2] != st {
		t.Fatalf("store placed at %d, want %d", b1.ValueIndex(st), i+2)
	}
	f.NumSlots = 1
	if err := Verify(f); err != nil {
		t.Fatalf("after inserts: %v", err)
	}
}
