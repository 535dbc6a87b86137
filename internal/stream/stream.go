// Package stream implements the edge-streaming graph model of the paper
// (Definition 1): edges of a graph arrive sequentially in a chosen order and
// may be replayed for multi-pass ("restreaming") algorithms.
//
// The paper evaluates each partitioner under its best-performing order:
// random for Hashing/DBH/Greedy/HDRF and BFS (the natural crawl order of web
// graphs) for Mint and CLUGP.
//
// Orders are represented as permutation Views over the graph's own edge
// slice rather than reordered copies: a View is the base slice plus an
// optional []int32 permutation, so materializing an order costs 4 bytes per
// edge instead of 8 and replaying a stream copies nothing. Shared, cached
// orders are structurally immutable: a View hands out edge values, never
// slice access.
//
// Consumers do not take Views directly: every per-edge loop in the
// repository (the partitioners, the CLUGP passes, the quality metrics)
// consumes the Source interface - a sequential, replayable edge stream
// delivered in blocks - for which View.Source is the trivially-satisfying
// in-memory adapter and package store provides the file-backed, out-of-core
// implementation.
package stream

import (
	"fmt"
	"math"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// Order selects the arrival order of the edge stream.
type Order int

const (
	// Natural preserves the order edges were generated or loaded in.
	Natural Order = iota
	// BFS reorders edges as a breadth-first crawl would discover them:
	// vertices are visited in BFS order over the underlying undirected
	// graph, and each vertex emits its incident not-yet-emitted edges when
	// visited. This is the order real web crawls approximate (Section II).
	BFS
	// Random applies a seeded Fisher-Yates shuffle.
	Random
)

func (o Order) String() string {
	switch o {
	case Natural:
		return "natural"
	case BFS:
		return "bfs"
	case Random:
		return "random"
	default:
		return fmt.Sprintf("order(%d)", int(o))
	}
}

// View is a read-only, zero-copy view of an ordered edge stream: a base edge
// slice plus an optional permutation. A nil permutation is the natural
// order, aliasing the base storage directly. Views are values; copying one
// copies two slice headers, never edges.
//
// The i-th streamed edge is At(i). Consumers must not retain or mutate
// anything reachable from a View: the base slice is typically the graph's
// own storage, and cached permutations are shared by every run that streams
// the same order.
type View struct {
	base []graph.Edge
	perm []int32
}

// Of returns the natural-order view of an edge slice, sharing its storage.
func Of(edges []graph.Edge) View { return View{base: edges} }

// Permuted returns a view of edges in the order perm[0], perm[1], ...
// A nil perm is the natural order. len(perm) may be shorter than the base
// slice (a sub-stream); every entry must index into edges.
func Permuted(edges []graph.Edge, perm []int32) View {
	return View{base: edges, perm: perm}
}

// Len returns the number of edges in the stream.
func (v View) Len() int {
	if v.perm != nil {
		return len(v.perm)
	}
	return len(v.base)
}

// At returns the i-th edge of the stream. The two-way branch predicts
// perfectly inside a loop, so indexed iteration over a View costs one bounds
// check over the natural order.
func (v View) At(i int) graph.Edge {
	if v.perm == nil {
		return v.base[i]
	}
	return v.base[v.perm[i]]
}

// Perm exposes the permutation (nil for natural order). Callers must treat
// it as read-only; it is shared with every other view of the same order.
func (v View) Perm() []int32 { return v.perm }

// Slice returns the sub-stream [lo, hi) as a view sharing this view's
// storage.
func (v View) Slice(lo, hi int) View {
	if v.perm != nil {
		return View{base: v.base, perm: v.perm[lo:hi]}
	}
	return View{base: v.base[lo:hi]}
}

// Materialize returns the stream as a freshly allocated edge slice in view
// order. It exists for interop (writing edge lists, hand-building graphs);
// the hot paths iterate the view directly.
func (v View) Materialize() []graph.Edge {
	out := make([]graph.Edge, v.Len())
	for i := range out {
		out[i] = v.At(i)
	}
	return out
}

// OrderBytes is the memory this view's ordering occupies beyond the base
// edge slice: 4 bytes per edge for a permuted order, 0 for natural. The
// pre-View representation copied the edges themselves at 8 bytes each; the
// cache-memory test pins the halving.
func (v View) OrderBytes() int64 {
	return int64(len(v.perm)) * 4
}

// MaxLen is the largest edge count a permutation View can index:
// permutations use int32 entries (half the footprint of int64). Callers
// with an error path (partition.Run) reject longer inputs via
// CheckLen up front; NewView itself panics past the limit, since a silent
// truncation would be worse.
const MaxLen = math.MaxInt32

// CheckLen returns an error when an edge count exceeds MaxLen. Entry
// points that order streams call it before NewView so oversized graphs
// surface as errors instead of panics.
func CheckLen(n int) error {
	if n > MaxLen {
		return fmt.Errorf("stream: %d edges exceed the %d permutation limit", n, MaxLen)
	}
	return nil
}

// NewView returns the graph's edges arranged in the requested order as a
// zero-copy view: Natural aliases the graph's storage, every other order
// builds a []int32 permutation over it. seed only affects Random.
// Graphs beyond MaxLen edges panic; guard with MaxLen where an error
// return is wanted.
func NewView(g *graph.Graph, order Order, seed uint64) View {
	if len(g.Edges) > MaxLen {
		panic(fmt.Sprintf("stream: %d edges exceed the 2^31-1 permutation limit", len(g.Edges)))
	}
	switch order {
	case Natural:
		return Of(g.Edges)
	case Random:
		perm := make([]int32, len(g.Edges))
		for i := range perm {
			perm[i] = int32(i)
		}
		rng := xrand.New(seed)
		for i := len(perm) - 1; i > 0; i-- {
			j := int(rng.Uint64n(uint64(i + 1)))
			perm[i], perm[j] = perm[j], perm[i]
		}
		return Permuted(g.Edges, perm)
	case BFS:
		return Permuted(g.Edges, bfsOrder(g))
	default:
		panic(fmt.Sprintf("stream: unknown order %d", int(order)))
	}
}

// Edges returns the graph's edges arranged in the requested order as a
// slice: Natural aliases the graph's own storage, every other order is a
// fresh copy. Prefer NewView, which never copies; Edges remains for interop
// with []graph.Edge consumers.
func Edges(g *graph.Graph, order Order, seed uint64) []graph.Edge {
	v := NewView(g, order, seed)
	if v.perm == nil {
		return v.base
	}
	return v.Materialize()
}

// bfsOrder emits edge indices in the order a BFS crawl over the
// undirected graph would first touch them. Each directed edge is emitted
// exactly once, when the traversal visits either endpoint. Disconnected
// components are started from the smallest unvisited vertex, matching how a
// crawler restarts from a new seed page.
func bfsOrder(g *graph.Graph) []int32 {
	n := g.NumVertices
	// Build an undirected CSR carrying original edge indices so each edge is
	// emitted once regardless of which endpoint is visited first.
	type half struct {
		to  graph.VertexID
		eid int32
	}
	off := make([]int64, n+1)
	for _, e := range g.Edges {
		off[e.Src+1]++
		off[e.Dst+1]++
	}
	for i := 0; i < n; i++ {
		off[i+1] += off[i]
	}
	adj := make([]half, 2*len(g.Edges))
	cursor := make([]int64, n)
	copy(cursor, off[:n])
	for i, e := range g.Edges {
		adj[cursor[e.Src]] = half{to: e.Dst, eid: int32(i)}
		cursor[e.Src]++
		adj[cursor[e.Dst]] = half{to: e.Src, eid: int32(i)}
		cursor[e.Dst]++
	}

	perm := make([]int32, 0, len(g.Edges))
	emitted := make([]bool, len(g.Edges))
	visited := make([]bool, n)
	frontier := make([]graph.VertexID, 0, 1024)
	for start := 0; start < n; start++ {
		if visited[start] {
			continue
		}
		visited[start] = true
		frontier = append(frontier[:0], graph.VertexID(start))
		for len(frontier) > 0 {
			v := frontier[0]
			frontier = frontier[1:]
			for _, h := range adj[off[v]:off[v+1]] {
				if !emitted[h.eid] {
					emitted[h.eid] = true
					perm = append(perm, h.eid)
				}
				if !visited[h.to] {
					visited[h.to] = true
					frontier = append(frontier, h.to)
				}
			}
		}
	}
	return perm
}
