package partition

import (
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// Greedy is PowerGraph's greedy heuristic (Gonzalez et al., OSDI 2012).
// For each edge (u,v) it consults the replica sets P(u), P(v) accumulated
// so far:
//
//  1. if P(u) and P(v) intersect, place the edge on the least-loaded common
//     partition (no new replica);
//  2. if both are non-empty but disjoint, place it on the least-loaded
//     partition holding either endpoint (one new replica);
//  3. if exactly one endpoint has been seen, use its least-loaded partition;
//  4. otherwise use the globally least-loaded partition.
//
// The P(v) table is the "global status table" whose locking the paper blames
// for the poor scaling of heuristic methods; here it also dominates their
// memory cost (Figure 6).
//
// A Greedy value keeps its replica table and counters as scratch reused
// across runs, so the per-edge path performs zero allocations and repeated
// runs reuse the O(|V|·k/64) bitset.
type Greedy struct {
	rs      metrics.ReplicaSets
	sizes   []int64
	scratch []int32
}

// Name implements Partitioner.
func (gr *Greedy) Name() string { return "Greedy" }

// PreferredOrder implements Partitioner.
func (gr *Greedy) PreferredOrder() stream.Order { return stream.Random }

func (gr *Greedy) run(src stream.Source, k int, sink *assignSink) error {
	gr.rs.Reset(src.NumVertices(), k)
	gr.sizes = resetInt64(gr.sizes, k)
	if cap(gr.scratch) < k {
		gr.scratch = make([]int32, 0, k)
	}
	rs, sizes, scratch := &gr.rs, gr.sizes, gr.scratch
	err := forEachBlock(src, func(blk []graph.Edge) error {
		out := sink.grab(len(blk))
		for j, e := range blk {
			u, v := e.Src, e.Dst
			var p int32
			common := rs.Intersect(u, v, scratch[:0])
			if len(common) > 0 {
				p = leastLoaded(sizes, common)
			} else {
				cu := rs.Count(u)
				cv := rs.Count(v)
				switch {
				case cu > 0 && cv > 0:
					p = leastLoaded(sizes, rs.Union(u, v, scratch[:0]))
				case cu > 0:
					p = leastLoaded(sizes, rs.Partitions(u, scratch[:0]))
				case cv > 0:
					p = leastLoaded(sizes, rs.Partitions(v, scratch[:0]))
				default:
					p = leastLoadedAll(sizes)
				}
			}
			out[j] = p
			sizes[p]++
			rs.Add(u, int(p))
			rs.Add(v, int(p))
		}
		return sink.commit(blk, out)
	})
	sink.hold(rs.Bytes() + 8*int64(cap(sizes)) + 4*int64(cap(scratch)))
	return err
}

// resetInt64 returns a zeroed int64 slice of length n, reusing buf's
// storage when possible.
func resetInt64(buf []int64, n int) []int64 {
	if cap(buf) < n {
		return make([]int64, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// resetUint32 returns a zeroed uint32 slice of length n, reusing buf's
// storage when possible.
func resetUint32(buf []uint32, n int) []uint32 {
	if cap(buf) < n {
		return make([]uint32, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}
