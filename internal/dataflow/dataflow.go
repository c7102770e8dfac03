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

	blockPos map[*ir.Block]int
}

// Analyze runs the analysis on f.
func Analyze(f *ir.Func) *Result {
	nb := len(f.Blocks)
	nv := f.NumValues()
	r := &Result{
		LiveIn:   newSets(nb, nv),
		LiveOut:  newSets(nb, nv),
		UEVar:    newSets(nb, nv),
		Defs:     newSets(nb, nv),
		blockPos: make(map[*ir.Block]int, nb),
	}
	for i, b := range f.Blocks {
		r.blockPos[b] = i
	}

	fillLocalSets(f, r.UEVar, r.Defs, r.blockPos)

	// Stack worklist seeded so blocks pop in postorder: liveness flows
	// backward, so processing a block after its successors converges
	// quickly (Cooper et al.).
	post := postorder(f)
	stack := make([]*ir.Block, len(post))
	for i, b := range post {
		stack[len(post)-1-i] = b
	}
	onStack := make(map[*ir.Block]bool, nb)
	for _, b := range post {
		onStack[b] = true
	}
	scratch := bitset.New(nv)
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		onStack[b] = false
		r.Iterations++
		i := r.blockPos[b]

		out := r.LiveOut[i]
		for _, e := range b.Succs {
			out.Union(r.LiveIn[r.blockPos[e.B]])
		}
		scratch.Copy(out)
		scratch.Subtract(r.Defs[i])
		scratch.Union(r.UEVar[i])
		if !scratch.Equal(r.LiveIn[i]) {
			r.LiveIn[i].Copy(scratch)
			for _, e := range b.Preds {
				if !onStack[e.B] {
					onStack[e.B] = true
					stack = append(stack, e.B)
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
func fillLocalSets(f *ir.Func, ueVar, defs []*bitset.Set, blockPos map[*ir.Block]int) {
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
						ueVar[blockPos[p]].Add(a.ID)
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

// postorder returns the blocks reachable from the entry in DFS postorder.
func postorder(f *ir.Func) []*ir.Block {
	seen := make(map[*ir.Block]bool, len(f.Blocks))
	var out []*ir.Block
	type frame struct {
		b    *ir.Block
		next int
	}
	if len(f.Blocks) == 0 {
		return nil
	}
	stack := []frame{{b: f.Entry()}}
	seen[f.Entry()] = true
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		if fr.next < len(fr.b.Succs) {
			s := fr.b.Succs[fr.next].B
			fr.next++
			if !seen[s] {
				seen[s] = true
				stack = append(stack, frame{b: s})
			}
			continue
		}
		out = append(out, fr.b)
		stack = stack[:len(stack)-1]
	}
	return out
}

// IsLiveIn reports whether v is live-in at block b.
func (r *Result) IsLiveIn(v *ir.Value, b *ir.Block) bool {
	return r.LiveIn[r.blockPos[b]].Has(v.ID)
}

// IsLiveOut reports whether v is live-out at block b.
func (r *Result) IsLiveOut(v *ir.Value, b *ir.Block) bool {
	return r.LiveOut[r.blockPos[b]].Has(v.ID)
}

// LiveInIDs returns the IDs of the values live-in at b, ascending.
func (r *Result) LiveInIDs(b *ir.Block) []int {
	return r.LiveIn[r.blockPos[b]].Elements()
}

// LiveOutIDs returns the IDs of the values live-out at b, ascending.
func (r *Result) LiveOutIDs(b *ir.Block) []int {
	return r.LiveOut[r.blockPos[b]].Elements()
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
