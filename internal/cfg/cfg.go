package cfg

import (
	"errors"
	"fmt"
	"strings"

	"fastliveness/internal/ir"
)

// Graph is a rooted directed graph. Node 0 is the entry (the paper's r).
// Parallel edges are allowed; self-loops are allowed anywhere but the entry.
type Graph struct {
	Succs [][]int
	Preds [][]int
}

// NewGraph returns an edgeless graph with n nodes.
func NewGraph(n int) *Graph {
	return &Graph{Succs: make([][]int, n), Preds: make([][]int, n)}
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.Succs) }

// AddEdge inserts a directed edge from s to t.
func (g *Graph) AddEdge(s, t int) {
	g.Succs[s] = append(g.Succs[s], t)
	g.Preds[t] = append(g.Preds[t], s)
}

// NumEdges returns the total edge count.
func (g *Graph) NumEdges() int {
	n := 0
	for _, ss := range g.Succs {
		n += len(ss)
	}
	return n
}

// FromFunc extracts the CFG of f. Node i corresponds to f.Blocks[i]; block
// IDs are not used because they may be sparse after edits. The returned
// index maps block ID to node.
//
// FromFunc runs at the head of every analysis build — including snapshot
// restores, where it is most of what is left to pay — so the adjacency
// rows are carved out of two flat arenas sized from the blocks' own
// degree counts (the IR's edge cross-indices guarantee in-degree ==
// len(b.Preds)): a handful of allocations total instead of two growing
// appends per node, and the arenas are pointer-free so the collector
// never scans the edges. Edge order is identical to the naive
// AddEdge-per-successor construction.
func FromFunc(f *ir.Func) (*Graph, []int) {
	n := len(f.Blocks)
	index := make([]int, f.NumBlocks())
	for i := range index {
		index[i] = -1
	}
	nEdges := 0
	for i, b := range f.Blocks {
		index[b.ID] = i
		nEdges += len(b.Succs)
	}

	g := &Graph{Succs: make([][]int, n), Preds: make([][]int, n)}
	sArena := make([]int, nEdges)
	sOff := 0
	for i, b := range f.Blocks {
		row := sArena[sOff : sOff+len(b.Succs)]
		sOff += len(b.Succs)
		for j, e := range b.Succs {
			row[j] = index[e.B.ID]
		}
		g.Succs[i] = row
	}
	// Pred rows, in the same (source, successor-index) order AddEdge would
	// have produced: carve each row empty at its node's offset, then fill
	// by appending (within the row's fixed capacity) while walking the
	// successor lists source-first.
	pArena := make([]int, nEdges)
	pOff := 0
	for i, b := range f.Blocks {
		g.Preds[i] = pArena[pOff : pOff : pOff+len(b.Preds)]
		pOff += len(b.Preds)
	}
	for i := range f.Blocks {
		for _, t := range g.Succs[i] {
			g.Preds[t] = append(g.Preds[t], i)
		}
	}
	return g, index
}

// AdoptGraph assembles a Graph whose adjacency rows are carved out of the
// four flat arrays — the snapshot-restore path, where the arrays alias a
// read-only file mapping and FromFunc's arena construction (and its cost)
// is skipped entirely. The arrays use FromFunc's layout: succOff/predOff
// are n+1 prefix offsets into succs/preds, and each pred row lists its
// node's incoming sources in (source, successor-index) order.
//
// The arrays arrive from disk, so their shape is validated rather than
// trusted: offsets must be monotone prefix sums covering both edge arrays
// exactly, every endpoint must be a real node, and the pred rows must be
// the exact source-order inverse of the succ rows — one O(n+e) cursor
// walk. A buffer that lies about any of it returns an error instead of a
// graph that would answer adjacency queries wrongly. The rows are aliased,
// not copied, so the adopted graph must never be mutated (AddEdge).
func AdoptGraph(succOff, succs, predOff, preds []int) (*Graph, error) {
	n := len(succOff) - 1
	if n < 0 || len(predOff) != n+1 {
		return nil, fmt.Errorf("cfg: adopt: offset arrays have %d/%d entries", len(succOff), len(predOff))
	}
	if len(succs) != len(preds) {
		return nil, fmt.Errorf("cfg: adopt: %d successor vs %d predecessor entries", len(succs), len(preds))
	}
	if n == 0 {
		if succOff[0] != 0 || predOff[0] != 0 || len(succs) != 0 {
			return nil, errors.New("cfg: adopt: nonempty edges for empty graph")
		}
		return &Graph{}, nil
	}
	if succOff[0] != 0 || predOff[0] != 0 || succOff[n] != len(succs) || predOff[n] != len(preds) {
		return nil, errors.New("cfg: adopt: offsets do not cover the edge arrays")
	}
	for i := 0; i < n; i++ {
		if succOff[i+1] < succOff[i] || predOff[i+1] < predOff[i] {
			return nil, fmt.Errorf("cfg: adopt: offsets decrease at node %d", i)
		}
	}
	for _, t := range succs {
		if t < 0 || t >= n {
			return nil, fmt.Errorf("cfg: adopt: successor %d out of range", t)
		}
	}
	// Pred rows must be the exact inverse FromFunc produces: walking the
	// succ rows source-first, each edge (s,t) appends s to t's pred row.
	cursor := make([]int, n)
	for s := 0; s < n; s++ {
		for _, t := range succs[succOff[s]:succOff[s+1]] {
			i := predOff[t] + cursor[t]
			if i >= predOff[t+1] || preds[i] != s {
				return nil, fmt.Errorf("cfg: adopt: pred rows are not the inverse of succ rows at edge %d->%d", s, t)
			}
			cursor[t]++
		}
	}
	for t := 0; t < n; t++ {
		if cursor[t] != predOff[t+1]-predOff[t] {
			return nil, fmt.Errorf("cfg: adopt: node %d has %d extra pred entries", t, predOff[t+1]-predOff[t]-cursor[t])
		}
	}
	g := &Graph{Succs: make([][]int, n), Preds: make([][]int, n)}
	for i := 0; i < n; i++ {
		g.Succs[i] = succs[succOff[i]:succOff[i+1]:succOff[i+1]]
		g.Preds[i] = preds[predOff[i]:predOff[i+1]:predOff[i+1]]
	}
	return g, nil
}

// Edge is a directed edge.
type Edge struct {
	S, T int
}

// EdgeClass is the DFS classification of an edge (paper Figure 1).
type EdgeClass uint8

const (
	// TreeEdge is an edge of the DFS spanning tree.
	TreeEdge EdgeClass = iota
	// BackEdge leads to a DFS ancestor of its source.
	BackEdge
	// ForwardEdge leads from a DFS ancestor to a non-child descendant.
	ForwardEdge
	// CrossEdge is any other edge; it always points to an already finished
	// subtree.
	CrossEdge
)

// String returns the class name used in Figure 1.
func (c EdgeClass) String() string {
	switch c {
	case TreeEdge:
		return "tree"
	case BackEdge:
		return "back"
	case ForwardEdge:
		return "forward"
	case CrossEdge:
		return "cross"
	}
	return fmt.Sprintf("class(%d)", int(c))
}

// DFS holds the result of a depth-first search from the entry.
type DFS struct {
	// Pre and Post are the preorder/postorder numbers, -1 for nodes not
	// reachable from the entry.
	Pre, Post []int
	// PreOrder and PostOrder list reachable nodes in visit/finish order.
	PreOrder, PostOrder []int
	// Parent is the DFS tree parent, -1 for the root and unreachable nodes.
	Parent []int
	// BackEdges lists the edges (s,t) where t is a DFS ancestor of s, in
	// discovery order; the paper's E↑.
	BackEdges []Edge
	// NumReachable counts nodes reachable from the entry.
	NumReachable int

	g *Graph
	// subtreeMax[v] is the largest preorder number inside v's DFS subtree;
	// used for ancestor tests.
	subtreeMax []int
}

// NewDFS runs an iterative depth-first search over g from node 0,
// classifying edges. Successors are explored in adjacency order, so the
// traversal is deterministic.
//
// Like FromFunc, this runs on every build including snapshot restores, so
// the six per-node arrays come out of one arena (pointer-free, one GC
// object) and the visit-order lists are pre-sized to n instead of grown.
func NewDFS(g *Graph) *DFS {
	n := g.N()
	arena := make([]int, 6*n)
	d := &DFS{
		Pre:        arena[0:n:n],
		Post:       arena[n : 2*n : 2*n],
		Parent:     arena[2*n : 3*n : 3*n],
		subtreeMax: arena[3*n : 4*n : 4*n],
		PreOrder:   arena[4*n : 4*n : 5*n],
		PostOrder:  arena[5*n : 5*n : 6*n],
		g:          g,
	}
	for i := 0; i < n; i++ {
		d.Pre[i], d.Post[i], d.Parent[i] = -1, -1, -1
	}
	if n == 0 {
		return d
	}

	type frame struct {
		node int
		next int // next successor index to explore
	}
	stack := make([]frame, 0, n)
	onStack := make([]bool, n) // true while the node's frame is open

	push := func(v, parent int) {
		d.Pre[v] = len(d.PreOrder)
		d.PreOrder = append(d.PreOrder, v)
		d.Parent[v] = parent
		onStack[v] = true
		stack = append(stack, frame{node: v})
	}
	push(0, -1)
	for len(stack) > 0 {
		fr := &stack[len(stack)-1]
		v := fr.node
		if fr.next < len(g.Succs[v]) {
			w := g.Succs[v][fr.next]
			fr.next++
			if d.Pre[w] == -1 {
				push(w, v)
			} else if onStack[w] {
				// w's frame is still open, so w is an ancestor of v (or v
				// itself for self-loops): a back edge.
				d.BackEdges = append(d.BackEdges, Edge{v, w})
			}
			// Forward and cross edges are classified on demand by Classify;
			// only back edges need to be collected eagerly.
			continue
		}
		onStack[v] = false
		d.Post[v] = len(d.PostOrder)
		d.PostOrder = append(d.PostOrder, v)
		d.subtreeMax[v] = len(d.PreOrder) - 1
		stack = stack[:len(stack)-1]
	}
	d.NumReachable = len(d.PreOrder)
	return d
}

// SubtreeMax exposes the per-node maximum preorder number inside each
// node's DFS subtree (the interval bound behind IsAncestor). The snapshot
// package persists it alongside the public arrays so a restore can adopt
// the DFS instead of re-running it. Read-only: the slice is the DFS's own
// backing array.
func (d *DFS) SubtreeMax() []int { return d.subtreeMax }

// AdoptDFS assembles a DFS over g from precomputed arrays — the
// snapshot-restore counterpart of NewDFS, skipping the traversal. The
// arrays arrive from disk, so AdoptDFS validates that they describe a
// self-consistent spanning tree of preorder intervals before trusting
// them: pre/post must be inverse permutations of the order lists,
// unreachable nodes must be marked so in all three per-node arrays, the
// root must be node 0 with no parent, every non-root's parent interval
// must enclose its own, and every claimed back edge must run to a DFS
// ancestor under those intervals. Any violation returns an error, never a
// DFS that would answer IsAncestor/IsBackEdge incoherently. The slices are
// aliased, not copied, so the adopted DFS (like its graph) is read-only.
func AdoptDFS(g *Graph, pre, post, parent, subtreeMax, preOrder, postOrder []int, backEdges []Edge) (*DFS, error) {
	n := g.N()
	r := len(preOrder)
	if len(pre) != n || len(post) != n || len(parent) != n || len(subtreeMax) != n {
		return nil, fmt.Errorf("cfg: adopt dfs: per-node arrays sized %d/%d/%d/%d for %d nodes",
			len(pre), len(post), len(parent), len(subtreeMax), n)
	}
	if r > n || len(postOrder) != r {
		return nil, fmt.Errorf("cfg: adopt dfs: order lists sized %d/%d for %d nodes", r, len(postOrder), n)
	}
	for i, v := range preOrder {
		if v < 0 || v >= n || pre[v] != i {
			return nil, fmt.Errorf("cfg: adopt dfs: preorder[%d] = %d inconsistent with pre", i, v)
		}
	}
	for i, v := range postOrder {
		if v < 0 || v >= n || post[v] != i {
			return nil, fmt.Errorf("cfg: adopt dfs: postorder[%d] = %d inconsistent with post", i, v)
		}
	}
	reach := 0
	for v := 0; v < n; v++ {
		if pre[v] < 0 {
			if pre[v] != -1 || post[v] != -1 || parent[v] != -1 {
				return nil, fmt.Errorf("cfg: adopt dfs: unreachable node %d has partial visit state", v)
			}
			continue
		}
		reach++
		if post[v] < 0 || post[v] >= r {
			return nil, fmt.Errorf("cfg: adopt dfs: reachable node %d has post %d", v, post[v])
		}
		if subtreeMax[v] < pre[v] || subtreeMax[v] >= r {
			return nil, fmt.Errorf("cfg: adopt dfs: node %d has subtree bound %d outside [%d,%d)", v, subtreeMax[v], pre[v], r)
		}
		if pre[v] == 0 {
			if v != 0 || parent[v] != -1 {
				return nil, fmt.Errorf("cfg: adopt dfs: preorder starts at node %d (parent %d)", v, parent[v])
			}
			continue
		}
		p := parent[v]
		if p < 0 || p >= n || pre[p] < 0 || pre[p] >= pre[v] ||
			pre[v] > subtreeMax[p] || subtreeMax[v] > subtreeMax[p] {
			return nil, fmt.Errorf("cfg: adopt dfs: node %d's interval escapes its parent %d", v, p)
		}
	}
	if reach != r {
		return nil, fmt.Errorf("cfg: adopt dfs: %d nodes marked reachable, order lists %d", reach, r)
	}
	if r > 0 && preOrder[0] != 0 {
		return nil, errors.New("cfg: adopt dfs: entry is not the first preorder node")
	}
	d := &DFS{
		Pre: pre, Post: post, Parent: parent,
		PreOrder: preOrder, PostOrder: postOrder,
		BackEdges:    backEdges,
		NumReachable: r,
		g:            g,
		subtreeMax:   subtreeMax,
	}
	for _, e := range backEdges {
		if e.S < 0 || e.S >= n || e.T < 0 || e.T >= n || !d.IsAncestor(e.T, e.S) {
			return nil, fmt.Errorf("cfg: adopt dfs: claimed back edge %d->%d is not ancestor-directed", e.S, e.T)
		}
	}
	return d, nil
}

// Reachable reports whether v was reached from the entry.
func (d *DFS) Reachable(v int) bool { return d.Pre[v] >= 0 }

// IsAncestor reports whether a is an ancestor of v in the DFS tree
// (every node is an ancestor of itself). It runs in O(1) using the
// preorder-interval property of DFS subtrees.
func (d *DFS) IsAncestor(a, v int) bool {
	if !d.Reachable(a) || !d.Reachable(v) {
		return false
	}
	return d.Pre[a] <= d.Pre[v] && d.Pre[v] <= d.subtreeMax[a]
}

// ClassifyAll returns the class of every edge, in adjacency order per node,
// correctly distinguishing duplicate edges (the first s->t occurrence that
// triggered discovery is the tree edge, later ones are forward edges).
func (d *DFS) ClassifyAll() map[Edge][]EdgeClass {
	out := make(map[Edge][]EdgeClass)
	for s := range d.g.Succs {
		if !d.Reachable(s) {
			continue
		}
		usedTree := map[int]bool{}
		for _, t := range d.g.Succs[s] {
			var c EdgeClass
			switch {
			case d.Parent[t] == s && !usedTree[t]:
				c = TreeEdge
				usedTree[t] = true
			case d.IsAncestor(t, s):
				c = BackEdge
			case d.IsAncestor(s, t):
				c = ForwardEdge
			default:
				c = CrossEdge
			}
			e := Edge{s, t}
			out[e] = append(out[e], c)
		}
	}
	return out
}

// IsBackEdge reports whether (s,t) is a DFS back edge.
func (d *DFS) IsBackEdge(s, t int) bool {
	return d.Reachable(s) && d.IsAncestor(t, s)
}

// BackEdgeTargets returns the distinct targets of back edges, in first-seen
// order.
func (d *DFS) BackEdgeTargets() []int {
	seen := map[int]bool{}
	var out []int
	for _, e := range d.BackEdges {
		if !seen[e.T] {
			seen[e.T] = true
			out = append(out, e.T)
		}
	}
	return out
}

// ReducedSuccs calls fn for every reduced-graph successor of v, i.e. every
// successor not reached through a back edge. The reduced graph G̃ (paper
// Definition 4's domain) is a DAG.
func (d *DFS) ReducedSuccs(v int, fn func(w int)) {
	for _, w := range d.g.Succs[v] {
		if !d.IsBackEdge(v, w) {
			fn(w)
		}
	}
}

// String summarizes the DFS for debugging.
func (d *DFS) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "dfs: %d reachable, %d back edges\n", d.NumReachable, len(d.BackEdges))
	for _, e := range d.BackEdges {
		fmt.Fprintf(&sb, "  back %d->%d\n", e.S, e.T)
	}
	return sb.String()
}
