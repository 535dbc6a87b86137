package partition

import (
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/store"
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

	// resume holds checkpoint state stashed by RestoreState until the next
	// run consumes it right after its tables reset.
	resume *greedyResume
}

// greedyResume is the stashed checkpoint state of a Greedy run, in the
// canonical encodings of metrics/state.go.
type greedyResume struct {
	replicas []byte
	sizes    []int64
}

// SnapshotState implements Checkpointer: the replica table and partition
// sizes, Greedy's entire per-edge state, in the canonical encoding.
func (gr *Greedy) SnapshotState(c *store.Checkpoint) error {
	c.AddSection(sectionGreedyReplicas, gr.rs.AppendState(nil))
	c.AddSection(sectionGreedySizes, metrics.AppendSizesState(nil, gr.sizes))
	return nil
}

// RestoreState implements Checkpointer, stashing the checkpoint's sections
// for the next run to load once its tables are at the run's geometry.
func (gr *Greedy) RestoreState(c *store.Checkpoint) error {
	rep, err := loadSection(c, sectionGreedyReplicas)
	if err != nil {
		return err
	}
	szs, err := loadSection(c, sectionGreedySizes)
	if err != nil {
		return err
	}
	sizes := make([]int64, c.K)
	rem, err := metrics.LoadSizesState(sizes, szs)
	if err != nil {
		return err
	}
	if err := consumed(rem, "greedy sizes"); err != nil {
		return err
	}
	gr.resume = &greedyResume{replicas: rep, sizes: sizes}
	return nil
}

// consumeResume loads the stashed checkpoint state into the just-reset tables.
func (gr *Greedy) consumeResume() error {
	r := gr.resume
	gr.resume = nil
	rem, err := gr.rs.LoadState(r.replicas)
	if err != nil {
		return err
	}
	if err := consumed(rem, "greedy replica"); err != nil {
		return err
	}
	copy(gr.sizes, r.sizes)
	return nil
}

// Name implements Partitioner.
func (gr *Greedy) Name() string { return "Greedy" }

// PreferredOrder implements Partitioner.
func (gr *Greedy) PreferredOrder() stream.Order { return stream.Random }

// Partition implements Partitioner.
func (gr *Greedy) Partition(src stream.Source, k int) ([]int32, error) {
	return partitionVia(gr, src, k)
}

// PartitionInto implements IntoPartitioner. The sink is constructed in a
// concrete call chain so it stays on the stack (zero-allocation contract).
func (gr *Greedy) PartitionInto(src stream.Source, k int, assign []int32) error {
	if err := checkInto(src, k, assign); err != nil {
		return err
	}
	sink := assignSink{assign: assign}
	return gr.run(src, k, &sink)
}

// PartitionStream implements StreamingPartitioner.
func (gr *Greedy) PartitionStream(src stream.Source, k int, emit Emit) error {
	return streamVia(gr, src, k, emit)
}

func (gr *Greedy) run(src stream.Source, k int, sink *assignSink) error {
	gr.rs.Reset(src.NumVertices(), k)
	gr.sizes = resetInt64(gr.sizes, k)
	if cap(gr.scratch) < k {
		gr.scratch = make([]int32, 0, k)
	}
	rs, sizes, scratch := &gr.rs, gr.sizes, gr.scratch
	if gr.resume != nil {
		if err := gr.consumeResume(); err != nil {
			return err
		}
	}
	return forEachBlock(src, func(blk []graph.Edge) error {
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
}

// StateBytes implements StateSizer: the replica bitset plus partition sizes.
func (gr *Greedy) StateBytes(numVertices, numEdges, k int) int64 {
	words := (k + 63) / 64
	return int64(numVertices)*int64(words)*8 + int64(k)*8
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
