// Package dataflow implements the textbook baseline: iterative backward
// data-flow liveness analysis with bit-vector sets.
//
// This is the "conventional liveness analysis" the paper contrasts itself
// with (§1, §6.2): it computes the full live-in/live-out sets of every
// block, is invalidated by any program edit, and serves here both as a
// baseline for the runtime experiments and as ground truth for the
// cross-validation test suite.
//
// The worklist is a stack seeded with the blocks in CFG postorder, the
// strategy Cooper, Harvey and Kennedy found effective for liveness and the
// one the LAO solver uses.
//
// φ convention (paper Definition 1): the i-th argument of a φ is used at
// the i-th predecessor of the φ's block. Hence φ arguments appear in the
// predecessor's upward-exposed set, are not live-in at the φ block, and a
// block's live-out is exactly the union of its successors' live-ins.
package dataflow

import (
	"fastliveness/internal/bitset"
	"fastliveness/internal/ir"
)

// Result holds the per-block liveness sets, bit-indexed by ir.Value ID.
type Result struct {
	// LiveIn and LiveOut are indexed by block position (ir.Func.Blocks
	// order).
	LiveIn, LiveOut []*bitset.Set
	// UEVar and Defs are the block-local sets the solver started from.
	UEVar, Defs []*bitset.Set
	// Iterations counts worklist pops, for the evaluation harness.
	Iterations int

	// pos maps a block ID to its position, -1 for an ID the analysis did
	// not see.
	pos []int32
}

// Analyze runs the analysis on f.
func Analyze(f *ir.Func) *Result {
	nb := len(f.Blocks)
	nv := f.NumValues()
	r := &Result{
		LiveIn:  newSets(nb, nv),
		LiveOut: newSets(nb, nv),
		UEVar:   newSets(nb, nv),
		Defs:    newSets(nb, nv),
		pos:     make([]int32, f.NumBlocks()),
	}
	for i := range r.pos {
		r.pos[i] = -1
	}
	for i, b := range f.Blocks {
		r.pos[b.ID] = int32(i)
	}

	fillLocalSets(f, r.UEVar, r.Defs, r.pos)

	// Stack worklist seeded so blocks pop in postorder: liveness flows
	// backward, so processing a block after its successors converges
	// quickly (Cooper et al.).
	post := postorder(f, r.pos)
	stack := make([]int32, len(post))
	onStack := make([]bool, nb)
	for i, p := range post {
		stack[len(post)-1-i] = p
		onStack[p] = true
	}
	scratch := bitset.New(nv)
	for len(stack) > 0 {
		i := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		onStack[i] = false
		r.Iterations++
		b := f.Blocks[i]

		out := r.LiveOut[i]
		for _, e := range b.Succs {
			out.Union(r.LiveIn[r.pos[e.B.ID]])
		}
		scratch.Copy(out)
		scratch.Subtract(r.Defs[i])
		scratch.Union(r.UEVar[i])
		if !scratch.Equal(r.LiveIn[i]) {
			r.LiveIn[i].Copy(scratch)
			for _, e := range b.Preds {
				if p := r.pos[e.B.ID]; !onStack[p] {
					onStack[p] = true
					stack = append(stack, p)
				}
			}
		}
	}
	return r
}

// fillLocalSets computes the block-local inputs of the analysis: ueVar[i]
// receives the upward-exposed uses of block i (with φ arguments attributed
// to predecessors per paper Definition 1) and defs[i] the values defined in
// it.
func fillLocalSets(f *ir.Func, ueVar, defs []*bitset.Set, pos []int32) {
	for i, b := range f.Blocks {
		for _, v := range b.Values {
			if v.Op.HasResult() {
				defs[i].Add(v.ID)
			}
			if v.Op == ir.OpPhi {
				// φ arguments are used at the predecessors.
				for ai, a := range v.Args {
					p := b.Preds[ai].B
					if a.Block != p {
						ueVar[pos[p.ID]].Add(a.ID)
					}
				}
				continue
			}
			for _, a := range v.Args {
				if a.Block != b {
					ueVar[i].Add(a.ID)
				}
			}
		}
		if c := b.Control; c != nil && c.Block != b {
			ueVar[i].Add(c.ID)
		}
	}
}

// newSets allocates n bitsets over the given universe, arena-backed: the
// returned sets are row views into one contiguous bitset.Matrix, so a
// whole per-block vector family (live-in, live-out, UEVar, defs) costs a
// constant number of allocations and iterates cache-contiguously.
func newSets(n, universe int) []*bitset.Set {
	return bitset.NewMatrix(n, universe).Views()
}

// postorder returns the positions of the blocks reachable from the entry
// in DFS postorder; pos maps block IDs to positions.
func postorder(f *ir.Func, pos []int32) []int32 {
	if len(f.Blocks) == 0 {
		return nil
	}
	seen := make([]bool, len(f.Blocks))
	var out []int32
	type frame struct {
		b    *ir.Block
		next int
	}
	stack := []frame{{b: f.Entry()}}
	seen[pos[f.Entry().ID]] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(fr.b.Succs) {
			s := fr.b.Succs[fr.next].B
			fr.next++
			if p := pos[s.ID]; !seen[p] {
				seen[p] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		out = append(out, pos[fr.b.ID])
		stack = stack[:len(stack)-1]
	}
	return out
}

// set returns b's row of sets, or nil for a block the analysis did not
// see.
func (r *Result) set(sets []*bitset.Set, b *ir.Block) *bitset.Set {
	if b.ID >= len(r.pos) || r.pos[b.ID] < 0 {
		return nil
	}
	return sets[r.pos[b.ID]]
}

// IsLiveIn reports whether v is live-in at block b.
func (r *Result) IsLiveIn(v *ir.Value, b *ir.Block) bool {
	s := r.set(r.LiveIn, b)
	return s != nil && s.Has(v.ID)
}

// IsLiveOut reports whether v is live-out at block b.
func (r *Result) IsLiveOut(v *ir.Value, b *ir.Block) bool {
	s := r.set(r.LiveOut, b)
	return s != nil && s.Has(v.ID)
}

// LiveInIDs returns the IDs of the values live-in at b, ascending.
func (r *Result) LiveInIDs(b *ir.Block) []int {
	if s := r.set(r.LiveIn, b); s != nil {
		return s.Elements()
	}
	return nil
}

// LiveOutIDs returns the IDs of the values live-out at b, ascending.
func (r *Result) LiveOutIDs(b *ir.Block) []int {
	if s := r.set(r.LiveOut, b); s != nil {
		return s.Elements()
	}
	return nil
}

// MemoryBytes reports the payload footprint of the live sets (the local
// UEVar/Defs sets are solver inputs, not part of the queryable result).
func (r *Result) MemoryBytes() int {
	return bitset.TotalWordBytes(r.LiveIn, r.LiveOut)
}

// AvgLiveIn returns the mean live-in set cardinality over all blocks — the
// "fill ratio" statistic the paper reports in §6.2 (3.16 for φ-related
// SPEC2000 liveness, 18.52 for the full analysis).
func (r *Result) AvgLiveIn() float64 {
	if len(r.LiveIn) == 0 {
		return 0
	}
	total := 0
	for _, s := range r.LiveIn {
		total += s.Count()
	}
	return float64(total) / float64(len(r.LiveIn))
}
