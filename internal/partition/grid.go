package partition

import (
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// Grid is the 2D constrained hashing partitioner (GraphBuilder / the
// "grid" heuristic PowerGraph ships): partitions form a sqrt(k) x sqrt(k)
// grid; each vertex hashes to a row and a column, and an edge goes to a
// partition in the intersection of its endpoints' constraint sets. Every
// vertex's replicas are confined to one row plus one column, bounding
// |P(v)| <= 2*sqrt(k)-1 by construction.
type Grid struct {
	Seed uint64
}

// Name implements Partitioner.
func (g *Grid) Name() string { return "Grid" }

// PreferredOrder implements Partitioner.
func (g *Grid) PreferredOrder() stream.Order { return stream.Random }

// run implements Partitioner. Grid semantics need a square layout, so the
// algorithm uses the largest perfect square side*side <= k and leaves any
// leftover partitions empty - the standard implementation choice; pick
// square k for meaningful balance numbers.
func (g *Grid) run(src stream.Source, k int, sink *assignSink) error {
	side := 1
	for (side+1)*(side+1) <= k {
		side++
	}
	ss := uint64(side)
	return forEachBlock(src, func(blk []graph.Edge) error {
		out := sink.grab(len(blk))
		for j, e := range blk {
			ru := xrand.Hash64(uint64(e.Src)^g.Seed) % ss        // u's row
			cv := xrand.Hash64(uint64(e.Dst)^g.Seed^0xbeef) % ss // v's column
			out[j] = int32(ru*ss + cv)                           // intersection cell
		}
		return sink.commit(blk, out)
	})
}

// StateBytes implements StateSizer: stateless like Hashing.
func (g *Grid) StateBytes(numVertices, numEdges, k int) int64 { return 0 }
