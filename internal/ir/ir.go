package ir

import (
	"fmt"
	"sync/atomic"
)

// Func is a single function: a CFG of blocks. Blocks[0] is the entry.
//
// Every mutation method classifies itself into one of two edit classes and
// bumps the matching monotonic epoch: CFG edits (block or edge add/remove,
// edge splitting) advance CFGEpoch, instruction edits (value insert/remove,
// operand or control rewrites, in-block reordering) advance InstrEpoch.
// Analyses snapshot the epochs they were computed at, so staleness is a
// counter comparison instead of a calling convention — the paper's §4
// contract ("CFG-only precomputation survives instruction edits") becomes
// checkable at runtime (see internal/backend.Stale).
type Func struct {
	Name string
	// Blocks in creation order; Blocks[0] is the entry block r.
	Blocks []*Block
	// NumSlots is the number of mutable variable slots a slot-form program
	// uses. Pure SSA functions have 0 or simply no slot ops left.
	NumSlots int

	nextValueID int
	nextBlockID int

	// cfgEpoch and instrEpoch count the two edit classes. They only ever
	// increase; any single mutation may advance its epoch by more than one
	// (compound edits count their parts). The counters are atomic so a
	// staleness check (an epoch load) may race a mutation on another
	// goroutine without torn reads — this is the lock-free seam the
	// program-level engine's per-query freshness test rides on. The IR
	// structure itself is NOT synchronized: a bumped epoch says "an edit
	// happened", it does not make concurrent structural reads safe, so
	// functions must still not be edited concurrently with IR walks
	// (the engine's Edit method provides that exclusion when needed).
	cfgEpoch   atomic.Uint64
	instrEpoch atomic.Uint64
}

// CFGEpoch returns the function's CFG edit counter: it advances whenever
// blocks or edges are added, removed or split. Analyses of every
// invalidation class are stale once it moves. The load is atomic and may
// race mutations on other goroutines.
func (f *Func) CFGEpoch() uint64 { return f.cfgEpoch.Load() }

// InstrEpoch returns the function's instruction edit counter: it advances
// whenever values are inserted, removed or reordered, or operands
// (including φ operands and block controls) are rewritten. Only analyses
// that materialize per-block sets are stale when it moves; the paper's
// checker survives. The load is atomic and may race mutations on other
// goroutines.
func (f *Func) InstrEpoch() uint64 { return f.instrEpoch.Load() }

// bumpCFG records a CFG edit. The bump is published after the structural
// change in program order; see the field comment for what that does and
// does not guarantee.
func (f *Func) bumpCFG() { f.cfgEpoch.Add(1) }

// bumpInstr records an instruction edit.
func (f *Func) bumpInstr() { f.instrEpoch.Add(1) }

// NewFunc returns an empty function with the given name.
func NewFunc(name string) *Func { return &Func{Name: name} }

// NewBlock appends a fresh block with the given kind (a CFG edit).
func (f *Func) NewBlock(kind BlockKind) *Block {
	b := &Block{ID: f.nextBlockID, Kind: kind, Func: f}
	f.nextBlockID++
	f.Blocks = append(f.Blocks, b)
	f.bumpCFG()
	return b
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// NumValues returns an upper bound on value IDs (IDs are dense in creation
// order and never reused, so this is the universe size for ID-indexed
// tables).
func (f *Func) NumValues() int { return f.nextValueID }

// NumBlocks returns an upper bound on block IDs.
func (f *Func) NumBlocks() int { return f.nextBlockID }

// Values calls fn for every value in every block, in block and program
// order.
func (f *Func) Values(fn func(v *Value)) {
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			fn(v)
		}
	}
}

// ValueByName returns the first value whose Name is name, or nil. Intended
// for tests and tools working on parsed programs.
func (f *Func) ValueByName(name string) *Value {
	var found *Value
	f.Values(func(v *Value) {
		if found == nil && v.Name == name {
			found = v
		}
	})
	return found
}

// BlockByName returns the block with the given printed name, or nil.
func (f *Func) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.name() == name {
			return b
		}
	}
	return nil
}

// Edge is one half of a CFG edge. In Block.Succs, an Edge holds the
// destination block B and the index I of the reverse entry in B.Preds;
// in Block.Preds it holds the source block and the index into its Succs.
// The cross-indices keep φ argument positions stable even with duplicate
// edges and under edge splitting.
type Edge struct {
	B *Block
	I int
}

// Block is a basic block: a list of values ended by an implicit terminator
// described by Kind and Control.
type Block struct {
	ID   int
	Kind BlockKind
	Func *Func
	// Name is an optional label (parser-assigned); printing falls back to
	// b<ID>.
	Name string

	// Values in program order. All φs must come first.
	Values []*Value

	// Control is the terminator operand: the condition for BlockIf and
	// BlockSwitch, the optional result for BlockRet, nil for BlockPlain.
	Control *Value

	Succs []Edge
	Preds []Edge
}

func (b *Block) name() string {
	if b.Name != "" {
		return b.Name
	}
	return fmt.Sprintf("b%d", b.ID)
}

// String returns the block's printed label.
func (b *Block) String() string { return b.name() }

// AddEdgeTo wires a CFG edge from b to c, maintaining cross-indices (a CFG
// edit).
func (b *Block) AddEdgeTo(c *Block) {
	i := len(b.Succs)
	j := len(c.Preds)
	b.Succs = append(b.Succs, Edge{c, j})
	c.Preds = append(c.Preds, Edge{b, i})
	b.Func.bumpCFG()
}

// NumPreds returns the predecessor count.
func (b *Block) NumPreds() int { return len(b.Preds) }

// NumSuccs returns the successor count.
func (b *Block) NumSuccs() int { return len(b.Succs) }

// Phis returns the leading φ values of the block.
func (b *Block) Phis() []*Value {
	n := 0
	for n < len(b.Values) && b.Values[n].Op == OpPhi {
		n++
	}
	return b.Values[:n]
}

// Use records a single use of a value: either by another value (User != nil,
// operand position Index) or as a block's control operand (UserBlock !=
// nil).
type Use struct {
	User      *Value
	Index     int
	UserBlock *Block
}

// Block returns the block where the use reads its value under paper
// Definition 1: a non-φ use at the user's block, a φ use at the φ block's
// corresponding predecessor, a control use at the controlling block.
func (u Use) Block() *Block {
	switch {
	case u.UserBlock != nil:
		return u.UserBlock
	case u.User.Op == OpPhi:
		return u.User.Block.Preds[u.Index].B
	default:
		return u.User.Block
	}
}

// Value is one SSA value / instruction.
type Value struct {
	ID    int
	Op    Op
	Block *Block
	Args  []*Value

	// AuxInt carries the constant for OpConst, the parameter index for
	// OpParam and the slot number for slot ops.
	AuxInt int64
	// AuxStr carries the callee name for OpCall.
	AuxStr string
	// Name is an optional human-readable name used by the printer/parser
	// (e.g. the pre-SSA variable it came from, "x3").
	Name string

	uses []Use
}

// String returns the printed operand name of the value.
func (v *Value) String() string {
	if v == nil {
		return "%<nil>"
	}
	if v.Name != "" {
		return "%" + v.Name
	}
	return fmt.Sprintf("%%v%d", v.ID)
}

// NewValue appends a value with the given op and arguments to b.
func (b *Block) NewValue(op Op, args ...*Value) *Value {
	return b.NewValueAux(op, 0, "", args...)
}

// NewValueI appends a value carrying AuxInt.
func (b *Block) NewValueI(op Op, auxInt int64, args ...*Value) *Value {
	return b.NewValueAux(op, auxInt, "", args...)
}

// NewValueAux appends a value with explicit aux fields.
func (b *Block) NewValueAux(op Op, auxInt int64, auxStr string, args ...*Value) *Value {
	v := b.newDetached(op, auxInt, auxStr, args...)
	b.Values = append(b.Values, v)
	return v
}

// newDetached allocates a value owned by b but not yet placed in b.Values.
// It bumps InstrEpoch on behalf of every placement path (NewValue*,
// InsertValue*).
func (b *Block) newDetached(op Op, auxInt int64, auxStr string, args ...*Value) *Value {
	f := b.Func
	v := &Value{ID: f.nextValueID, Op: op, Block: b, AuxInt: auxInt, AuxStr: auxStr}
	f.nextValueID++
	f.bumpInstr()
	for _, a := range args {
		v.AddArg(a)
	}
	return v
}

// InsertValueFront places a new value at the front of the block, before any
// existing values — used for φ insertion, which must precede ordinary
// values.
func (b *Block) InsertValueFront(op Op, args ...*Value) *Value {
	v := b.newDetached(op, 0, "", args...)
	b.Values = append(b.Values, nil)
	copy(b.Values[1:], b.Values)
	b.Values[0] = v
	return v
}

// InsertValueAt places a new value at index i of the block's value list;
// existing values at i and later shift right. The caller is responsible for
// keeping the φ-prefix invariant (never insert a non-φ before a φ). Spill
// code insertion uses it to place stores right after definitions and
// reloads right before uses.
func (b *Block) InsertValueAt(i int, op Op, auxInt int64, args ...*Value) *Value {
	v := b.newDetached(op, auxInt, "", args...)
	b.Values = append(b.Values, nil)
	copy(b.Values[i+1:], b.Values[i:])
	b.Values[i] = v
	return v
}

// InsertValueAfterPhis places a new value right after the block's φs.
func (b *Block) InsertValueAfterPhis(op Op, args ...*Value) *Value {
	v := b.newDetached(op, 0, "", args...)
	n := len(b.Phis())
	b.Values = append(b.Values, nil)
	copy(b.Values[n+1:], b.Values[n:])
	b.Values[n] = v
	return v
}

// AddArg appends a to v's arguments and records the use (an instruction
// edit: it extends a's def-use chain, e.g. a φ operand for a new
// predecessor).
func (v *Value) AddArg(a *Value) {
	if a == nil {
		panic("ir: nil argument")
	}
	if a.Block == nil {
		panic("ir: argument " + a.String() + " is detached (removed from its block)")
	}
	a.uses = append(a.uses, Use{User: v, Index: len(v.Args)})
	v.Args = append(v.Args, a)
	a.Block.Func.bumpInstr()
}

// SetArg replaces argument i with a, updating use lists (an instruction
// edit — this is how φ operands and ordinary operands are rewritten).
func (v *Value) SetArg(i int, a *Value) {
	if a.Block == nil {
		panic("ir: argument " + a.String() + " is detached (removed from its block)")
	}
	old := v.Args[i]
	old.removeUse(Use{User: v, Index: i})
	v.Args[i] = a
	a.uses = append(a.uses, Use{User: v, Index: i})
	a.Block.Func.bumpInstr()
}

// ClearArgs removes all of v's arguments, maintaining use lists. Passes use
// it to unlink values (e.g. dead φ webs) before removal. An instruction
// edit.
func (v *Value) ClearArgs() { v.resetArgs() }

// resetArgs removes all of v's argument use records and clears Args.
func (v *Value) resetArgs() {
	for i, a := range v.Args {
		a.removeUse(Use{User: v, Index: i})
	}
	if len(v.Args) > 0 && v.Block != nil {
		v.Block.Func.bumpInstr()
	}
	v.Args = v.Args[:0]
}

func (a *Value) removeUse(u Use) {
	for i, x := range a.uses {
		if x.User == u.User && x.Index == u.Index && x.UserBlock == u.UserBlock {
			a.uses[i] = a.uses[len(a.uses)-1]
			a.uses = a.uses[:len(a.uses)-1]
			return
		}
	}
	panic("ir: use record not found for " + a.String())
}

// SetControl sets b's control operand, maintaining the operand's use list
// (an instruction edit: it rewrites a use, not the edge structure).
func (b *Block) SetControl(v *Value) {
	if b.Control != nil {
		b.Control.removeUse(Use{UserBlock: b})
	}
	b.Control = v
	if v != nil {
		v.uses = append(v.uses, Use{UserBlock: b})
	}
	b.Func.bumpInstr()
}

// Uses returns the current use records of v. The slice aliases internal
// storage and is invalidated by mutations.
func (v *Value) Uses() []Use { return v.uses }

// NumUses returns how many places use v.
func (v *Value) NumUses() int { return len(v.uses) }

// UseBlockIDs appends to dst the IDs of the blocks where v is used,
// following paper Definition 1 (see Use.Block). Duplicates are possible;
// callers that need distinct blocks dedup.
func (v *Value) UseBlockIDs(dst []int) []int {
	for _, u := range v.uses {
		dst = append(dst, u.Block().ID)
	}
	return dst
}

// ReplaceUsesWith rewrites every use of v to use w instead.
func (v *Value) ReplaceUsesWith(w *Value) {
	if v == w {
		return
	}
	for len(v.uses) > 0 {
		u := v.uses[len(v.uses)-1]
		if u.UserBlock != nil {
			u.UserBlock.SetControl(w)
		} else {
			u.User.SetArg(u.Index, w)
		}
	}
}

// RemoveValue deletes v from its block (an instruction edit). v must have
// no remaining uses.
func (b *Block) RemoveValue(v *Value) {
	for i, x := range b.Values {
		if x == v {
			b.RemoveValueAt(i)
			return
		}
	}
	panic("ir: value not found in its block")
}

// RemoveValueAt deletes the value at index i of the block's value list,
// returning it (an instruction edit). The value must have no remaining
// uses; its own argument uses are unlinked. After removal the value is
// detached (Block == nil) and must not be used as an operand again.
func (b *Block) RemoveValueAt(i int) *Value {
	v := b.Values[i]
	if len(v.uses) != 0 {
		panic("ir: removing value that still has uses: " + v.String())
	}
	v.resetArgs()
	copy(b.Values[i:], b.Values[i+1:])
	b.Values = b.Values[:len(b.Values)-1]
	v.Block = nil
	b.Func.bumpInstr()
	return v
}

// RotateValuesToFront moves the values at indices [i, len) to the front of
// the block, preserving both sub-orders (an instruction edit). SSA
// construction uses it to place freshly appended entry-block initializers
// before the body. The caller is responsible for the φ-prefix invariant
// and for intra-block dominance (the rotated values must not use values
// they are moved in front of).
func (b *Block) RotateValuesToFront(i int) {
	if i <= 0 || i >= len(b.Values) {
		return
	}
	tail := append([]*Value(nil), b.Values[i:]...)
	copy(b.Values[len(tail):], b.Values[:i])
	copy(b.Values, tail)
	b.Func.bumpInstr()
}

// ValueIndex returns v's position within its block, or -1.
func (b *Block) ValueIndex(v *Value) int {
	for i, x := range b.Values {
		if x == v {
			return i
		}
	}
	return -1
}

// SplitEdge splits the CFG edge b.Succs[si], inserting and returning a new
// BlockPlain block (a CFG edit). φ argument positions in the destination
// are preserved because the destination's pred slot is reused in place.
// Splitting critical edges before SSA destruction avoids the classic
// lost-copy and swap problems.
func (b *Block) SplitEdge(si int) *Block {
	c := b.Succs[si].B
	pi := b.Succs[si].I
	e := b.Func.NewBlock(BlockPlain)
	b.Succs[si] = Edge{e, 0}
	e.Preds = []Edge{{b, si}}
	e.Succs = []Edge{{c, pi}}
	c.Preds[pi] = Edge{e, 0}
	b.Func.bumpCFG()
	return e
}

// SplitCriticalEdges splits every edge whose source has multiple successors
// and whose destination has multiple predecessors. It returns the number of
// edges split.
func (f *Func) SplitCriticalEdges() int {
	n := 0
	for _, b := range f.Blocks {
		if len(b.Succs) < 2 {
			continue
		}
		for si := 0; si < len(b.Succs); si++ {
			if len(b.Succs[si].B.Preds) >= 2 {
				b.SplitEdge(si)
				n++
			}
		}
	}
	return n
}

// RemoveBlock deletes an empty, fully disconnected block from the function
// (a CFG edit).
func (f *Func) RemoveBlock(b *Block) {
	if len(b.Preds) != 0 || len(b.Succs) != 0 || len(b.Values) != 0 || b.Control != nil {
		panic("ir: RemoveBlock on a block that is still wired or non-empty")
	}
	for i, x := range f.Blocks {
		if x == b {
			copy(f.Blocks[i:], f.Blocks[i+1:])
			f.Blocks = f.Blocks[:len(f.Blocks)-1]
			f.bumpCFG()
			return
		}
	}
	panic("ir: block not in function")
}

// Params returns the OpParam values of the entry block in parameter order.
func (f *Func) Params() []*Value {
	var ps []*Value
	for _, v := range f.Entry().Values {
		if v.Op == OpParam {
			ps = append(ps, v)
		}
	}
	return ps
}
