package backend

import (
	"fmt"

	"fastliveness/internal/cfg"
	"fastliveness/internal/dom"
	"fastliveness/internal/ir"
)

// Prep is the CFG-level preparation the checker starts from: the extracted
// graph, its DFS and its dominator tree. One Prepare call serves the
// checker and the public Liveness handle alike.
type Prep struct {
	F *ir.Func
	// Graph is the extracted CFG; node i corresponds to F.Blocks[i].
	Graph *cfg.Graph
	// Index maps block ID to graph node (-1 for stale IDs).
	Index []int
	// DFS is the depth-first search from the entry.
	DFS *cfg.DFS
	// Tree is the dominator tree.
	Tree *dom.Tree
}

// Prepare verifies f structurally, extracts its CFG, and builds the DFS and
// dominator tree. It fails if f is malformed or has blocks unreachable from
// the entry (both would make liveness undefined).
func Prepare(f *ir.Func) (*Prep, error) {
	if err := ir.Verify(f); err != nil {
		return nil, err
	}
	return PrepareUnverified(f)
}

// PrepareUnverified is Prepare for a caller that warrants f already passes
// ir.Verify — the engine verifies once per function per edit epoch and then
// reuses that result across every rebuild, refill, and snapshot restore, so
// the verifier's full IR walk stays off the per-build path. The CFG-level
// checks (reachability here, the dominator and dimension validation in the
// snapshot path) still run; only the instruction-level invariant walk is
// skipped.
func PrepareUnverified(f *ir.Func) (*Prep, error) {
	g, index := cfg.FromFunc(f)
	d := cfg.NewDFS(g)
	if d.NumReachable != g.N() {
		return nil, fmt.Errorf("backend: %s: %d of %d blocks unreachable from entry",
			f.Name, g.N()-d.NumReachable, g.N())
	}
	return &Prep{F: f, Graph: g, Index: index, DFS: d, Tree: dom.Iterative(g, d)}, nil
}

// Node maps a block to its CFG node. It panics for blocks that are not part
// of the prepared CFG — querying across a CFG edit is a contract violation,
// not a recoverable condition.
func (p *Prep) Node(b *ir.Block) int {
	if b.ID >= len(p.Index) || p.Index[b.ID] < 0 {
		panic(fmt.Sprintf("backend: block %s is not part of the analyzed CFG", b))
	}
	return p.Index[b.ID]
}

// Reducible reports whether the prepared CFG is reducible.
func (p *Prep) Reducible() bool { return dom.IsReducible(p.DFS, p.Tree) }

// UseNodes reads v's def-use chain (the paper's Definition 1 placement)
// into scratch as CFG nodes, returning the reused slice. It translates each
// use exactly as a CheckerResult query does (useNode), so timing it times
// the def-use walk of a query.
func (p *Prep) UseNodes(scratch []int, v *ir.Value) []int {
	scratch = scratch[:0]
	for _, u := range v.Uses() {
		scratch = append(scratch, p.useNode(u))
	}
	return scratch
}

// useNode maps one use record to the CFG node of its Definition 1 block.
func (p *Prep) useNode(u ir.Use) int { return p.Index[u.Block().ID] }
