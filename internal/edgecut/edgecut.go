// Package edgecut implements the edge-cut (vertex partitioning) side of the
// paper's Section II-C comparison: streaming edge-cut partitioners (LDG,
// FENNEL) and a METIS-style offline multilevel partitioner.
//
// Edge-cut partitioning assigns each VERTEX to exactly one partition and
// counts edges crossing partitions as the communication cost - the dual of
// the vertex-cut model the rest of this repository implements. The paper's
// argument (backed by percolation theory) is that power-law web graphs have
// good vertex-cuts but poor balanced edge-cuts; the CutVsReplication
// experiment in package bench quantifies that claim on our datasets.
package edgecut

import (
	"fmt"

	"repro/internal/graph"
)

// Partitioner assigns vertices to k partitions.
type Partitioner interface {
	// Name identifies the algorithm.
	Name() string
	// Partition returns one partition id per vertex.
	Partition(g *graph.Graph, k int) ([]int32, error)
}

// Quality summarises an edge-cut partitioning.
type Quality struct {
	K int
	// CutEdges is the number of edges whose endpoints sit in different
	// partitions.
	CutEdges int64
	// CutFraction is CutEdges / |E|.
	CutFraction float64
	// VertexSizes is the number of vertices per partition.
	VertexSizes []int64
	// VertexBalance is k * max(VertexSizes) / |V| (1.0 = perfect).
	VertexBalance float64
	// EdgeBalance is k * max(local edges) / |E|, where an edge is local to
	// its source's partition - the compute balance a vertex-centric system
	// would see.
	EdgeBalance float64
}

// Evaluate computes edge-cut quality for a vertex assignment.
func Evaluate(g *graph.Graph, assign []int32, k int) (*Quality, error) {
	if k < 1 {
		return nil, fmt.Errorf("edgecut: k must be >= 1, got %d", k)
	}
	numVertices := g.NumVertices
	if len(assign) != numVertices {
		return nil, fmt.Errorf("edgecut: %d assignments for %d vertices", len(assign), numVertices)
	}
	q := &Quality{K: k, VertexSizes: make([]int64, k)}
	for v, p := range assign {
		if p < 0 || int(p) >= k {
			return nil, fmt.Errorf("edgecut: vertex %d assigned to invalid partition %d", v, p)
		}
		q.VertexSizes[p]++
	}
	localEdges := make([]int64, k)
	for _, e := range g.Edges {
		if assign[e.Src] != assign[e.Dst] {
			q.CutEdges++
		}
		localEdges[assign[e.Src]]++
	}
	if m := len(g.Edges); m > 0 {
		q.CutFraction = float64(q.CutEdges) / float64(m)
		var maxE int64
		for _, s := range localEdges {
			if s > maxE {
				maxE = s
			}
		}
		q.EdgeBalance = float64(k) * float64(maxE) / float64(m)
	}
	if numVertices > 0 {
		var maxV int64
		for _, sz := range q.VertexSizes {
			if sz > maxV {
				maxV = sz
			}
		}
		q.VertexBalance = float64(k) * float64(maxV) / float64(numVertices)
	}
	return q, nil
}
