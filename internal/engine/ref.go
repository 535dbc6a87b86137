package engine

import "repro/internal/graph"

// Reference single-machine implementations, structured independently of the
// distributed engine (array sweeps over the raw edge list rather than
// per-node local state), used by tests to validate that the simulated
// distributed runs compute the same fixed points regardless of the
// partitioner.

// ReferencePageRank computes damped PageRank with uniform dangling-mass
// redistribution over iters synchronous iterations.
func ReferencePageRank(g *graph.Graph, damping float64, iters int) []float64 {
	n := g.NumVertices
	if n == 0 {
		return nil
	}
	nf := float64(n)
	outdeg := make([]int64, n)
	for _, e := range g.Edges {
		outdeg[e.Src]++
	}
	rank := make([]float64, n)
	next := make([]float64, n)
	for v := range rank {
		rank[v] = 1 / nf
	}
	for it := 0; it < iters; it++ {
		var dangling float64
		for v := 0; v < n; v++ {
			next[v] = 0
			if outdeg[v] == 0 {
				dangling += rank[v]
			}
		}
		for _, e := range g.Edges {
			next[e.Dst] += rank[e.Src] / float64(outdeg[e.Src])
		}
		base := (1-damping)/nf + damping*dangling/nf
		for v := 0; v < n; v++ {
			next[v] = base + damping*next[v]
		}
		rank, next = next, rank
	}
	return rank
}

// ReferenceComponents computes undirected connected components by
// union-find, labelling each vertex with the smallest vertex id of its
// component.
func ReferenceComponents(g *graph.Graph) []uint32 {
	n := g.NumVertices
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for _, e := range g.Edges {
		ru, rv := find(int32(e.Src)), find(int32(e.Dst))
		if ru == rv {
			continue
		}
		// Union by smaller id so the root is the component minimum.
		if ru < rv {
			parent[rv] = ru
		} else {
			parent[ru] = rv
		}
	}
	out := make([]uint32, n)
	for v := 0; v < n; v++ {
		out[v] = uint32(find(int32(v)))
	}
	return out
}

// ReferenceLabelPropagation runs synchronous plurality label propagation
// over the undirected graph with the exact update rule of the distributed
// engine (keep current label unless strictly beaten; ties to the smaller
// label), for validation.
func ReferenceLabelPropagation(g *graph.Graph, maxIters int) []uint32 {
	if maxIters <= 0 {
		maxIters = 20
	}
	n := g.NumVertices
	label := make([]uint32, n)
	for v := range label {
		label[v] = uint32(v)
	}
	csr := graph.BuildUndirectedCSR(g)
	next := make([]uint32, n)
	counts := make(map[uint32]int32)
	for it := 0; it < maxIters; it++ {
		changed := false
		for v := 0; v < n; v++ {
			neigh := csr.Neigh(graph.VertexID(v))
			if len(neigh) == 0 {
				next[v] = label[v]
				continue
			}
			clear(counts)
			for _, w := range neigh {
				counts[label[w]]++
			}
			cur := label[v]
			best := cur
			bestCount := counts[cur]
			for lab, c := range counts {
				if c > bestCount || (c == bestCount && lab < best) {
					best, bestCount = lab, c
				}
			}
			next[v] = best
			if best != cur {
				changed = true
			}
		}
		label, next = next, label
		if !changed {
			break
		}
	}
	return label
}
