package ir

import "fmt"

// Verify checks the structural invariants of f and returns the first
// violation found, or nil. It does not check SSA strictness (definition
// dominates use); that needs a dominator tree and lives in package ssa.
// Use lists and references are checked in one walk in block order, so a
// detached argument or control is reported ahead of a bad use list on a
// later value; when a use list fails, the first value up to that point
// whose list has the wrong number of records is reported in its place.
//
// Invariants checked:
//   - the entry block has no predecessors (the paper's r),
//   - block kind matches successor arity and control presence,
//   - edge cross-indices are mutually consistent,
//   - φs come first in their block and have one argument per predecessor,
//   - fixed-arity ops have the right number of arguments, none nil,
//   - use lists exactly mirror Args/Control references,
//   - values belong to the block that contains them, IDs are unique,
//   - slot references stay below Func.NumSlots.
//
// Verify runs before every analysis precompute (backend.Prepare), so it is
// on the hot path of every engine build and rebuild. All bookkeeping is
// ID-indexed slices — IDs are small dense ints assigned by the function's
// own counters — and no error string is formatted until a violation is
// found, so a verification pass costs O(blocks + values + references) with
// no map traffic and no allocation beyond four scratch slices: the
// ID-indexed block and value tables, each value's first reference slot,
// and the bitset of claimed reference slots.
func Verify(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("%s: function has no blocks", f.Name)
	}
	if len(f.Entry().Preds) != 0 {
		return fmt.Errorf("%s: entry block %s has predecessors", f.Name, f.Entry())
	}

	// Block identity: placed blocks, ID-indexed. IDs outside the counter's
	// range mean corrupt bookkeeping (NewBlock assigns them densely).
	maxBlockID := -1
	for _, b := range f.Blocks {
		if b.ID < 0 || b.ID >= f.nextBlockID {
			return fmt.Errorf("%s: block with ID %d outside [0,%d)", f.Name, b.ID, f.nextBlockID)
		}
		if b.ID > maxBlockID {
			maxBlockID = b.ID
		}
	}
	seenBlock := make([]*Block, maxBlockID+1)
	for _, b := range f.Blocks {
		if b.Func != f {
			return fmt.Errorf("%s: block %s belongs to wrong func", f.Name, b)
		}
		if seenBlock[b.ID] != nil {
			return fmt.Errorf("%s: duplicate block ID %d", f.Name, b.ID)
		}
		seenBlock[b.ID] = b
		if err := verifyBlockShape(f, b); err != nil {
			return err
		}
	}

	// Edge cross-index consistency, both directions.
	for _, b := range f.Blocks {
		for i, e := range b.Succs {
			if e.B == nil {
				return fmt.Errorf("%s: %s succ %d is nil", f.Name, b, i)
			}
			if e.I >= len(e.B.Preds) || e.B.Preds[e.I].B != b || e.B.Preds[e.I].I != i {
				return fmt.Errorf("%s: edge %s->%s: succ cross-index broken", f.Name, b, e.B)
			}
		}
		for j, e := range b.Preds {
			if e.B == nil {
				return fmt.Errorf("%s: %s pred %d is nil", f.Name, b, j)
			}
			if e.I >= len(e.B.Succs) || e.B.Succs[e.I].B != b || e.B.Succs[e.I].I != j {
				return fmt.Errorf("%s: edge %s<-%s: pred cross-index broken", f.Name, b, e.B)
			}
		}
	}

	// Value identity: placed values, ID-indexed like blocks. Every
	// reference (argument or block control) is also numbered as a slot:
	// argument i of v is slot argSlot[v.ID]+i, the control of block b is
	// slot numArgs+b.ID.
	maxValueID := -1
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if v.ID < 0 || v.ID >= f.nextValueID {
				return fmt.Errorf("%s: value with ID %d outside [0,%d)", f.Name, v.ID, f.nextValueID)
			}
			if v.ID > maxValueID {
				maxValueID = v.ID
			}
		}
	}
	seenValue := make([]*Value, maxValueID+1)
	argSlot := make([]int32, maxValueID+1)
	placed := func(a *Value) bool {
		return a.ID >= 0 && a.ID <= maxValueID && seenValue[a.ID] == a
	}
	numArgs, numRefs := 0, 0

	for _, b := range f.Blocks {
		inPhis := true
		for _, v := range b.Values {
			if v.Block != b {
				return fmt.Errorf("%s: value %s in %s has Block=%v", f.Name, v, b, v.Block)
			}
			if prev := seenValue[v.ID]; prev != nil {
				return fmt.Errorf("%s: duplicate value ID %d (%s, %s)", f.Name, v.ID, prev, v)
			}
			seenValue[v.ID] = v
			argSlot[v.ID] = int32(numArgs)
			numArgs += len(v.Args)
			if v.Op == OpPhi {
				if !inPhis {
					return fmt.Errorf("%s: φ %s in %s appears after non-φ values", f.Name, v, b)
				}
				if len(v.Args) != len(b.Preds) {
					return fmt.Errorf("%s: φ %s in %s has %d args for %d preds",
						f.Name, v, b, len(v.Args), len(b.Preds))
				}
			} else {
				inPhis = false
				if want := v.Op.ArgLen(); want >= 0 && len(v.Args) != want {
					return fmt.Errorf("%s: %s (%s) has %d args, want %d",
						f.Name, v, v.Op, len(v.Args), want)
				}
			}
			if v.Op == OpParam && b != f.Entry() {
				return fmt.Errorf("%s: param %s outside entry block", f.Name, v)
			}
			if (v.Op == OpSlotLoad || v.Op == OpSlotStore) &&
				(v.AuxInt < 0 || v.AuxInt >= int64(f.NumSlots)) {
				return fmt.Errorf("%s: %s references slot %d outside [0,%d)",
					f.Name, v, v.AuxInt, f.NumSlots)
			}
			for i, a := range v.Args {
				if a == nil {
					return fmt.Errorf("%s: %s arg %d is nil", f.Name, v, i)
				}
				if !a.Op.HasResult() {
					return fmt.Errorf("%s: %s uses result-less value %s", f.Name, v, a)
				}
			}
		}
		if b.Control != nil {
			if !b.Control.Op.HasResult() {
				return fmt.Errorf("%s: %s control %s has no result", f.Name, b, b.Control)
			}
			numRefs++
		}
	}
	numRefs += numArgs

	// Every reference must appear exactly once in the target's use list, and
	// nothing else may. Each use record must resolve to an actual
	// in-function reference to its value, no two records may name the same
	// reference (repeatedUse), and there must be as many records as
	// references. Any violation takes useListError's slow path, which
	// reports a value with the wrong number of records ahead of a bad
	// record. (Valid, unrepeated records that add up to the references are
	// exactly the references, so the fast path keeps no per-value count;
	// keeping one made BenchmarkVerify slower.)
	claimed := make([]uint64, (numArgs+maxBlockID+1+63)/64)
	records := 0
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			for _, u := range v.uses {
				switch {
				case u.User != nil && u.UserBlock == nil:
					if !placed(u.User) || u.Index < 0 || u.Index >= len(u.User.Args) ||
						u.User.Args[u.Index] != v {
						return useListError(f, seenValue, v,
							fmt.Errorf("%s: %s has stray use record %+v", f.Name, v, u))
					}
				case u.User == nil && u.UserBlock != nil:
					ub := u.UserBlock
					if u.Index != 0 || ub.ID < 0 || ub.ID > maxBlockID ||
						seenBlock[ub.ID] != ub || ub.Control != v {
						return useListError(f, seenValue, v,
							fmt.Errorf("%s: %s has stray use record %+v", f.Name, v, u))
					}
				default:
					return useListError(f, seenValue, v,
						fmt.Errorf("%s: %s has stray use record %+v", f.Name, v, u))
				}
			}
			records += len(v.uses)
			if len(v.uses) > 1 {
				if dup, found := repeatedUse(v.uses, claimed, argSlot, numArgs); found {
					return useListError(f, seenValue, v,
						fmt.Errorf("%s: %s has duplicate use record %+v", f.Name, v, dup))
				}
			}
			// Arguments and controls must be values that are placed in some
			// block of this function. (Format the reference description only
			// on failure — this loop runs per argument of every value.)
			for _, a := range v.Args {
				if !placed(a) {
					return fmt.Errorf("%s: %s references detached value %s", f.Name, v, a)
				}
			}
		}
		if a := b.Control; a != nil && !placed(a) {
			return fmt.Errorf("%s: %s control references detached value %s", f.Name, b, a)
		}
	}
	if records != numRefs {
		return useListError(f, seenValue, nil,
			fmt.Errorf("%s: %d use records for %d references", f.Name, records, numRefs))
	}
	return nil
}

// repeatedUse finds a record in uses that repeats an earlier one. uses is
// one value's use list, every record already known to name a reference to
// that value; since a reference's records can only sit in its value's
// list, lists are checked one at a time. Each record claims its reference's
// slot in claimed (argument i of value u is slot argSlot[u.ID]+i, the
// control of block b is slot numArgs+b.ID), which keeps the check linear
// however long the list.
func repeatedUse(uses []Use, claimed []uint64, argSlot []int32, numArgs int) (dup Use, found bool) {
	for _, u := range uses {
		slot := uint(numArgs)
		if u.User != nil {
			slot = uint(argSlot[u.User.ID]) + uint(u.Index)
		} else {
			slot += uint(u.UserBlock.ID)
		}
		if claimed[slot/64]&(1<<(slot%64)) != 0 {
			return u, true
		}
		claimed[slot/64] |= 1 << (slot % 64)
	}
	return Use{}, false
}

// useListError is Verify's slow path once the use lists fail: it counts
// every placed value's references and reports the first value, up to and
// including last (nil for all of them), whose use list has the wrong
// length, or err if none has.
func useListError(f *Func, seenValue []*Value, last *Value, err error) error {
	refs := make([]int32, len(seenValue))
	count := func(a *Value) {
		if a != nil && a.ID >= 0 && a.ID < len(refs) && seenValue[a.ID] == a {
			refs[a.ID]++
		}
	}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			for _, a := range v.Args {
				count(a)
			}
		}
		count(b.Control)
	}
	for _, b := range f.Blocks {
		for _, v := range b.Values {
			if len(v.uses) != int(refs[v.ID]) {
				return fmt.Errorf("%s: %s has %d use records, want %d",
					f.Name, v, len(v.uses), refs[v.ID])
			}
			if v == last {
				return err
			}
		}
	}
	return err
}

func verifyBlockShape(f *Func, b *Block) error {
	switch b.Kind {
	case BlockPlain:
		if len(b.Succs) != 1 {
			return fmt.Errorf("%s: plain block %s has %d successors", f.Name, b, len(b.Succs))
		}
		if b.Control != nil {
			return fmt.Errorf("%s: plain block %s has a control value", f.Name, b)
		}
	case BlockIf:
		if len(b.Succs) != 2 {
			return fmt.Errorf("%s: if block %s has %d successors", f.Name, b, len(b.Succs))
		}
		if b.Control == nil {
			return fmt.Errorf("%s: if block %s has no control value", f.Name, b)
		}
	case BlockSwitch:
		if len(b.Succs) < 1 {
			return fmt.Errorf("%s: switch block %s has no successors", f.Name, b)
		}
		if b.Control == nil {
			return fmt.Errorf("%s: switch block %s has no control value", f.Name, b)
		}
	case BlockRet:
		if len(b.Succs) != 0 {
			return fmt.Errorf("%s: ret block %s has %d successors", f.Name, b, len(b.Succs))
		}
	default:
		return fmt.Errorf("%s: block %s has invalid kind %d", f.Name, b, int(b.Kind))
	}
	return nil
}
