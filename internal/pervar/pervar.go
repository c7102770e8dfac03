// Package pervar implements the per-variable SSA liveness algorithm the
// paper discusses as related work [2] (Appel & Palsberg, "Modern Compiler
// Implementation in Java"): for each variable, walk backward from every use
// to the definition along the def-use chain, marking the blocks passed
// through as live. It is also Algorithm 4 of Brandner, Boissinot et al.,
// "Computing Liveness Sets for SSA-Form Programs" (2011): the walk needs no
// loop forest and no reducibility, so it serves every CFG.
//
// Like the paper's checker it exploits that a variable can only be live
// inside the dominance subtree of its definition and never traverses the
// instructions inside a block; unlike the checker, its result is an
// explicit set representation that program edits invalidate (§7: "it is as
// vulnerable to program modifications as the data-flow approaches").
//
// The walk for one variable touches only the blocks where it is live, so
// the result stores exactly those (block, variable) pairs: per block, the
// ascending IDs of its live values. Its cost and size follow the total
// size of the live sets, not blocks × values as a bit matrix would.
//
// It can be run per variable in isolation (AnalyzeValues); Analyze
// computes every variable, which is what the fastliveness LiveIn/LiveOut
// enumeration uses.
package pervar

import (
	"slices"

	"fastliveness/internal/ir"
)

// Result records, per block, the values live-in and live-out there.
type Result struct {
	// pos maps a block ID to the block's position in f.Blocks, -1 for
	// IDs that name no analyzed block.
	pos     []int32
	in, out sets
}

// sets holds one ascending ID list per block position, packed: the list
// of position i is ids[start[i]:start[i+1]].
type sets struct {
	start, ids []int32
}

// entry records that value id is live at block position pos.
type entry struct{ pos, id int32 }

// Analyze computes liveness for every value of f.
func Analyze(f *ir.Func) *Result {
	vals := make([]*ir.Value, f.NumValues())
	f.Values(func(v *ir.Value) { vals[v.ID] = v })
	return analyze(f, vals)
}

// AnalyzeValues computes liveness for the given values only — the property
// the paper highlights about this algorithm (§7): "it can be run on each
// variable separately". Queries about unanalyzed values return false.
func AnalyzeValues(f *ir.Func, values []*ir.Value) *Result {
	vals := slices.Clone(values)
	slices.SortFunc(vals, func(a, b *ir.Value) int { return a.ID - b.ID })
	return analyze(f, slices.Compact(vals))
}

// analyze walks every value of vals, which is in ascending ID order (nil
// entries are skipped), so each block's lists come out ascending.
func analyze(f *ir.Func, vals []*ir.Value) *Result {
	nb := len(f.Blocks)
	pos := make([]int32, f.NumBlocks())
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range f.Blocks {
		pos[b.ID] = int32(i)
	}
	// inMark[i] (outMark[i]) is 1 + the index in vals of the last value
	// found live-in (live-out) at block position i, so the marks of one
	// walk need no clearing before the next.
	inMark := make([]int32, nb)
	outMark := make([]int32, nb)
	var in, out []entry
	var stack []int32
	for k, v := range vals {
		if v == nil || !v.Op.HasResult() {
			continue
		}
		mark, def, id := int32(k+1), pos[v.Block.ID], int32(v.ID)
		// Walk up from every use (paper Definition 1 placement) to the
		// definition: v is live-in at each block reached before def, and
		// live-out at each predecessor of such a block.
		stack = stack[:0]
		for _, u := range v.Uses() {
			stack = append(stack, pos[u.Block().ID])
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			// Never live-in at the definition block (Definition 2: the
			// path must not contain def).
			if b == def || inMark[b] == mark {
				continue
			}
			inMark[b] = mark
			in = append(in, entry{b, id})
			for _, e := range f.Blocks[b].Preds {
				if p := pos[e.B.ID]; outMark[p] != mark {
					outMark[p] = mark
					out = append(out, entry{p, id})
					stack = append(stack, p)
				}
			}
		}
	}
	return &Result{pos: pos, in: pack(nb, in), out: pack(nb, out)}
}

// pack groups entries by block position. It is a stable counting sort, so
// each block's IDs keep the ascending order they were recorded in.
func pack(nb int, es []entry) sets {
	s := sets{start: make([]int32, nb+1), ids: make([]int32, len(es))}
	for _, e := range es {
		s.start[e.pos+1]++
	}
	for i := 1; i <= nb; i++ {
		s.start[i] += s.start[i-1]
	}
	next := slices.Clone(s.start[:nb])
	for _, e := range es {
		s.ids[next[e.pos]] = e.id
		next[e.pos]++
	}
	return s
}

// row returns the IDs live at b, or nil for a block the analysis did not
// see.
func (r *Result) row(s *sets, b *ir.Block) []int32 {
	if b.ID >= len(r.pos) || r.pos[b.ID] < 0 {
		return nil
	}
	p := r.pos[b.ID]
	return s.ids[s.start[p]:s.start[p+1]]
}

func (r *Result) has(s *sets, v *ir.Value, b *ir.Block) bool {
	_, ok := slices.BinarySearch(r.row(s, b), int32(v.ID))
	return ok
}

func (r *Result) ids(s *sets, b *ir.Block) []int {
	row := r.row(s, b)
	out := make([]int, len(row))
	for i, id := range row {
		out[i] = int(id)
	}
	return out
}

// IsLiveIn reports whether v is live-in at b.
func (r *Result) IsLiveIn(v *ir.Value, b *ir.Block) bool { return r.has(&r.in, v, b) }

// IsLiveOut reports whether v is live-out at b.
func (r *Result) IsLiveOut(v *ir.Value, b *ir.Block) bool { return r.has(&r.out, v, b) }

// LiveInIDs returns the IDs of the values live-in at b, ascending.
func (r *Result) LiveInIDs(b *ir.Block) []int { return r.ids(&r.in, b) }

// LiveOutIDs returns the IDs of the values live-out at b, ascending.
func (r *Result) LiveOutIDs(b *ir.Block) []int { return r.ids(&r.out, b) }

// MemoryBytes reports the payload footprint of the live sets.
func (r *Result) MemoryBytes() int {
	return 4 * (len(r.in.start) + len(r.in.ids) + len(r.out.start) + len(r.out.ids))
}
