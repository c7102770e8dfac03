package dom

import "fastliveness/internal/cfg"

// LengauerTarjan computes the dominator tree with the classic
// Lengauer–Tarjan algorithm (the "simple" variant with path compression).
// It is the tests' reference oracle: it must produce exactly the same Tree
// as Iterative, and both are also held against a set-based reference.
func LengauerTarjan(g *cfg.Graph, d *cfg.DFS) *Tree {
	n := g.N()
	idom := make([]int, n)
	for i := range idom {
		idom[i] = -1
	}
	r := d.NumReachable
	if n == 0 || r == 0 {
		return build(g, d, idom)
	}

	// All arrays below are indexed by DFS preorder number.
	parent := make([]int, r)   // DFS tree parent (preorder number)
	semi := make([]int, r)     // semidominator (preorder number)
	vertex := d.PreOrder       // preorder number -> node
	ancestor := make([]int, r) // forest link, -1 = root of its tree
	label := make([]int, r)    // minimum-semi vertex on the forest path
	dom := make([]int, r)
	bucket := make([][]int, r) // vertices whose semidominator is this one

	for i := 0; i < r; i++ {
		semi[i] = i
		label[i] = i
		ancestor[i] = -1
		if p := d.Parent[vertex[i]]; p >= 0 {
			parent[i] = d.Pre[p]
		} else {
			parent[i] = -1
		}
	}

	// eval with iterative path compression.
	var compressStack []int
	eval := func(v int) int {
		if ancestor[v] == -1 {
			return v
		}
		// Collect the path to the tree root, then compress top-down.
		compressStack = compressStack[:0]
		for u := v; ancestor[ancestor[u]] != -1; u = ancestor[u] {
			compressStack = append(compressStack, u)
		}
		for i := len(compressStack) - 1; i >= 0; i-- {
			u := compressStack[i]
			if semi[label[ancestor[u]]] < semi[label[u]] {
				label[u] = label[ancestor[u]]
			}
			ancestor[u] = ancestor[ancestor[u]]
		}
		return label[v]
	}

	for w := r - 1; w >= 1; w-- {
		// Step 2: semidominators, via preds of vertex[w].
		for _, pn := range g.Preds[vertex[w]] {
			if !d.Reachable(pn) {
				continue
			}
			u := eval(d.Pre[pn])
			if semi[u] < semi[w] {
				semi[w] = semi[u]
			}
		}
		bucket[semi[w]] = append(bucket[semi[w]], w)
		ancestor[w] = parent[w] // link(parent[w], w)

		// Step 3: implicit idoms for parent[w]'s bucket.
		for _, v := range bucket[parent[w]] {
			u := eval(v)
			if semi[u] < semi[v] {
				dom[v] = u
			} else {
				dom[v] = parent[w]
			}
		}
		bucket[parent[w]] = bucket[parent[w]][:0]
	}

	// Step 4: explicit idoms in preorder.
	for w := 1; w < r; w++ {
		if dom[w] != semi[w] {
			dom[w] = dom[dom[w]]
		}
	}
	for w := 1; w < r; w++ {
		idom[vertex[w]] = vertex[dom[w]]
	}
	return build(g, d, idom)
}
