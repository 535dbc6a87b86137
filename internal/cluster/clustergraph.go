package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/graph"
	"repro/internal/stream"
)

// Arc is one weighted inter-cluster adjacency entry. W counts directed
// edges in both directions between the two clusters, i.e.
// |e(ci,cj)| + |e(cj,ci)|, which is exactly the quantity the game's
// edge-cutting cost sums over (Equation 11). An arc is 8 bytes: a weight
// is at most the number of crossing edges, which BuildGraph bounds by
// maxCrossing.
type Arc struct {
	To ID
	W  uint32
}

// Graph is the cluster-level view built by re-streaming the edges once the
// vertex->cluster table is final. It is the sole input of the second pass.
type Graph struct {
	// NumClusters is the number of (compacted) clusters.
	NumClusters int
	// Intra[c] is |c|: the number of edges with both endpoints in c.
	Intra []int64
	// Adj[c] lists c's inter-cluster arcs, sorted by To. All rows share one
	// flat backing array (a CSR layout); treat them as read-only.
	Adj [][]Arc
	// AdjTotal[c] is the summed arc weight of c: |e(c,V\c)| + |e(V\c,c)|.
	AdjTotal []int64
	// Weight[c] = 2*Intra[c] + AdjTotal[c] is c's share of edge endpoints:
	// an intra edge contributes 2 to its cluster, a crossing edge 1 to each
	// side, so weights sum to 2|E|. The partitioning game balances this
	// quantity because it predicts the final per-partition edge load after
	// the transformation pass (each partition receives its clusters' intra
	// edges plus roughly half of their cut edges).
	Weight []int64
	// TotalIntra is the sum of Intra.
	TotalIntra int64
	// TotalInter is the number of directed edges crossing clusters
	// (each counted once), i.e. sum over clusters of |e(ci, V\ci)|.
	TotalInter int64
	// BuildBytes is the most BuildGraph's tables held at once, the graph's
	// (Bytes) and the build's own, read where they peak. Read-only.
	BuildBytes int64
}

// maxCrossing is the most crossing edges BuildGraph accepts. Bucket
// offsets and arc weights are uint32, and neither can exceed the crossing
// count: a bucket is a slice of the crossing edges, and a pair's weight
// is at most its bucket's length.
const maxCrossing int64 = math.MaxUint32

// checkBuildLimits reports a build whose crossing edges or arcs would wrap
// the uint32 bucket offsets and weights (crossing > maxCrossing) or the
// int32 CSR row offsets (arcs > MaxInt32), rather than let them scatter to
// wrong rows. Checking the crossing total once covers every weight and
// every per-bucket count, which are bounded by it.
func checkBuildLimits(crossing, arcs int64) error {
	if crossing > maxCrossing {
		return fmt.Errorf("cluster: %d crossing edges exceed the bucket limit of %d", crossing, maxCrossing)
	}
	if arcs > math.MaxInt32 {
		return fmt.Errorf("cluster: %d arcs exceed the CSR index limit of %d", arcs, math.MaxInt32)
	}
	return nil
}

// BuildGraph aggregates the edge source into the cluster graph using the
// final assignments in res. res must be compacted first (every edge
// endpoint assigned, ids dense).
//
// The source is streamed twice (replayable by contract), and every
// crossing edge is held as one 4-byte cluster id:
//
//   - pass 1 counts intra edges per cluster and crossing edges per lower
//     endpoint cluster lo;
//   - pass 2 scatters each crossing edge's higher cluster hi into lo's
//     bucket (one flat []ID, bucketed by lo);
//   - sweep 1 counts each cluster's distinct neighbours with an O(m)
//     stamp array, which sizes the CSR rows;
//   - sweep 2 visits the buckets in lo order, folds each into its distinct
//     neighbours with their weights in one reused scratch slice, and gives
//     each neighbour hi's row the below-self arc (To lo);
//   - sweep 3 visits the rows in order and mirrors every below-self arc
//     into its To's row as an above-self arc.
//
// Every row ends sorted by To without a comparison sort: a row's
// below-self arcs arrive in ascending lo order in sweep 2, and its
// above-self arcs in ascending row order in sweep 3, after all of the
// former. Peak memory (BuildBytes) is the bucket array plus the 8-byte
// arcs, not the edge list. No maps and a bounded number of allocations
// regardless of edge count.
func BuildGraph(src stream.Source, res *Result) (*Graph, error) {
	m := res.NumClusters
	cg := &Graph{
		NumClusters: m,
		Intra:       make([]int64, m),
		Adj:         make([][]Arc, m),
		AdjTotal:    make([]int64, m),
		Weight:      make([]int64, m),
	}

	// Pass 1: intra counts, and crossing counts per lo at bucket[lo+1] so
	// the prefix sum below leaves bucket lo starting at bucket[lo].
	bucket := make([]uint32, m+1)
	var crossing int
	err := stream.ForEach(src, func(_ int, blk []graph.Edge) error {
		for _, e := range blk {
			cu := res.Assign[e.Src]
			cv := res.Assign[e.Dst]
			if cu == None || cv == None {
				return fmt.Errorf("cluster: edge %d->%d has unclustered endpoint", e.Src, e.Dst)
			}
			if cu == cv {
				cg.Intra[cu]++
				cg.TotalIntra++
			} else {
				bucket[min(cu, cv)+1]++
				crossing++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cg.TotalInter = int64(crossing)
	if err := checkBuildLimits(int64(crossing), 0); err != nil {
		return nil, err
	}
	if crossing == 0 {
		for c := 0; c < m; c++ {
			cg.Weight[c] = 2 * cg.Intra[c]
		}
		cg.BuildBytes = cg.Bytes() + 4*int64(cap(bucket))
		return cg, nil
	}
	for c := 1; c <= m; c++ {
		bucket[c] += bucket[c-1]
	}

	// Pass 2: scatter hi into lo's bucket. bucket[lo] is the cursor, so
	// afterwards it holds the bucket's end: lo's ids are
	// his[bucket[lo-1]:bucket[lo]] (from 0 for lo = 0).
	his := make([]ID, crossing)
	err = stream.ForEach(src, func(_ int, blk []graph.Edge) error {
		for _, e := range blk {
			cu := res.Assign[e.Src]
			cv := res.Assign[e.Dst]
			if cu == cv {
				continue
			}
			lo, hi := min(cu, cv), max(cu, cv)
			his[bucket[lo]] = hi
			bucket[lo]++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Sweep 1: one arc per side per distinct pair. stamp[hi] == lo+1 marks
	// hi as already counted for this lo; widest, the most distinct
	// neighbours in one bucket, sizes sweep 2's scratch.
	rowLen := make([]int32, m)
	stamp := make([]int32, m)
	arcs, widest := 0, int32(0)
	begin := uint32(0)
	for lo := range m {
		end := bucket[lo]
		above := rowLen[lo]
		for _, hi := range his[begin:end] {
			if stamp[hi] != int32(lo)+1 {
				stamp[hi] = int32(lo) + 1
				rowLen[lo]++
				rowLen[hi]++
				arcs += 2
			}
		}
		widest = max(widest, rowLen[lo]-above)
		begin = end
	}
	if err := checkBuildLimits(int64(crossing), int64(arcs)); err != nil {
		return nil, err
	}
	off := make([]int32, m+1)
	for c := 0; c < m; c++ {
		off[c+1] = off[c] + rowLen[c]
	}
	flat := make([]Arc, arcs)
	cursor := rowLen // reuse as the scatter cursor
	copy(cursor, off[:m])

	// Sweep 2: fold lo's bucket into its distinct neighbours and their
	// weights, then give each hi's row its below-self arc (To lo). stamp
	// now holds hi's index in scratch, trusted only if it points at hi
	// within the current scratch (To is unique there), so stale sweep-1
	// values need no clearing.
	scratch := make([]Arc, 0, widest)
	// Every table the build makes is live from here until his is dropped.
	cg.BuildBytes = cg.Bytes() + 8*int64(cap(flat)+cap(scratch)) +
		4*int64(cap(bucket)+cap(his)+cap(rowLen)+cap(stamp)+cap(off))
	begin = 0
	for lo := range m {
		end := bucket[lo]
		scratch = scratch[:0]
		for _, hi := range his[begin:end] {
			if i := stamp[hi]; int(i) < len(scratch) && scratch[i].To == hi {
				scratch[i].W++
				continue
			}
			stamp[hi] = int32(len(scratch))
			scratch = append(scratch, Arc{To: hi, W: 1})
		}
		begin = end
		for _, a := range scratch {
			flat[cursor[a.To]] = Arc{To: ID(lo), W: a.W}
			cursor[a.To]++
		}
	}

	// Sweep 3: transpose. Row r's below-self arcs end at cursor[r] when the
	// sweep reaches r (only rows above a row write into it), and each
	// mirrors into its To's row as an above-self arc (To r).
	for r := range m {
		for _, a := range flat[off[r]:cursor[r]] {
			flat[cursor[a.To]] = Arc{To: ID(r), W: a.W}
			cursor[a.To]++
		}
	}

	for c := 0; c < m; c++ {
		row := flat[off[c]:off[c+1]]
		if len(row) > 0 {
			cg.Adj[c] = row
		}
		var t int64
		for _, a := range row {
			t += int64(a.W)
		}
		cg.AdjTotal[c] = t
		cg.Weight[c] = 2*cg.Intra[c] + t
	}
	return cg, nil
}

// Bytes is the memory g's tables hold: each one's capacity times its
// element size, the rows' shared arc array included.
func (g *Graph) Bytes() int64 {
	n := 24*int64(cap(g.Adj)) + 8*int64(cap(g.Intra)+cap(g.AdjTotal)+cap(g.Weight))
	for _, row := range g.Adj {
		n += 8 * int64(len(row))
	}
	return n
}

// ArcWeight returns the symmetric inter-cluster weight between a and b
// (0 if not adjacent), by binary search over a's sorted arcs.
func (g *Graph) ArcWeight(a, b ID) int64 {
	arcs := g.Adj[a]
	i := sort.Search(len(arcs), func(i int) bool { return arcs[i].To >= b })
	if i < len(arcs) && arcs[i].To == b {
		return int64(arcs[i].W)
	}
	return 0
}

// TotalAdjacency returns the sum of c's arc weights: |e(c,V\c)|+|e(V\c,c)|.
func (g *Graph) TotalAdjacency(c ID) int64 {
	if g.AdjTotal != nil {
		return g.AdjTotal[c]
	}
	var t int64
	for _, a := range g.Adj[c] {
		t += int64(a.W)
	}
	return t
}

// TotalWeight returns the sum of cluster weights, 2*TotalIntra+2*TotalInter
// = 2|E|.
func (g *Graph) TotalWeight() int64 {
	return 2*g.TotalIntra + 2*g.TotalInter
}

// WeightOf returns Weight[c], computing it on the fly for hand-built graphs
// that did not pass through BuildGraph.
func (g *Graph) WeightOf(c ID) int64 {
	if g.Weight != nil {
		return g.Weight[c]
	}
	return 2*g.Intra[c] + g.TotalAdjacency(c)
}
