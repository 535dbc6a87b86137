package partition

import (
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// HDRF is High-Degree (are) Replicated First (Petroni et al., CIKM 2015),
// the paper's state-of-the-art one-pass baseline. For each edge it scores
// every partition with a replication term that prefers partitions already
// holding an endpoint - weighted so the LOWER-degree endpoint counts more,
// which steers cuts toward high-degree vertices - plus a balance term, and
// picks the argmax:
//
//	theta(u)   = delta(u) / (delta(u)+delta(v))          (partial degrees)
//	g(u,p)     = 1 + (1 - theta(u))  if p holds u, else 0
//	C_rep(p)   = g(u,p) + g(v,p)
//	C_bal(p)   = BalanceWeight * (maxsize - |p|) / (eps + maxsize - minsize)
//
// Like Greedy it keeps the full P(v) table and scans all k partitions per
// edge, which is exactly the O(k) cost the runtime experiments (Figure 7)
// show blowing up at large k.
//
// An HDRF value keeps its replica table, degree table and counters as
// scratch reused across runs; the per-edge scoring loop is allocation-free
// and loads each endpoint's replica bitset word once per 64 partitions
// instead of once per partition.
type HDRF struct {
	// BalanceWeight is the lambda of the HDRF paper (its default 1.1 keeps
	// near-perfect balance; larger trades quality for balance). Zero means
	// 1.1.
	BalanceWeight float64

	rs    metrics.ReplicaSets
	deg   []uint32
	sizes []int64
}

// sizeExtrema returns max and min of sizes (which is never empty: k >= 1).
func sizeExtrema(sizes []int64) (maxSize, minSize int64) {
	maxSize, minSize = sizes[0], sizes[0]
	for _, s := range sizes[1:] {
		if s > maxSize {
			maxSize = s
		}
		if s < minSize {
			minSize = s
		}
	}
	return maxSize, minSize
}

// Name implements Partitioner.
func (h *HDRF) Name() string { return "HDRF" }

// PreferredOrder implements Partitioner.
func (h *HDRF) PreferredOrder() stream.Order { return stream.Random }

// Partition implements Partitioner.
func (h *HDRF) Partition(src stream.Source, k int) ([]int32, error) {
	return partitionVia(h, src, k)
}

// PartitionInto implements IntoPartitioner. The sink is constructed here,
// in a concrete (devirtualized) call chain, so it stays on the stack and
// the repeated-run path keeps its zero-allocation contract.
func (h *HDRF) PartitionInto(src stream.Source, k int, assign []int32) error {
	if err := checkInto(src, k, assign); err != nil {
		return err
	}
	sink := assignSink{assign: assign}
	return h.run(src, k, &sink)
}

// PartitionStream implements StreamingPartitioner.
func (h *HDRF) PartitionStream(src stream.Source, k int, emit Emit) error {
	return streamVia(h, src, k, emit)
}

func (h *HDRF) run(src stream.Source, k int, sink *assignSink) error {
	lam := h.BalanceWeight
	if lam == 0 {
		lam = 1.1
	}
	const eps = 1.0
	h.rs.Reset(src.NumVertices(), k)
	h.deg = resetUint32(h.deg, src.NumVertices())
	h.sizes = resetInt64(h.sizes, k)
	rs, deg, sizes := &h.rs, h.deg, h.sizes
	var maxSize, minSize int64

	return forEachBlock(src, func(blk []graph.Edge) error {
		out := sink.grab(len(blk))
		if sink.replaying() {
			// A resumed run's durable prefix: apply each edge's emitted
			// partition through the updates the scoring loop below makes.
			// maxSize and minSize are always exactly the size extrema.
			if err := sink.replay(blk, out); err != nil {
				return err
			}
			for j, e := range blk {
				p := int(out[j])
				deg[e.Src]++
				deg[e.Dst]++
				sizes[p]++
				rs.Add(e.Src, p)
				rs.Add(e.Dst, p)
			}
			maxSize, minSize = sizeExtrema(sizes)
			return sink.commit(blk, out)
		}
		for j, e := range blk {
			u, v := e.Src, e.Dst
			deg[u]++
			deg[v]++
			du, dv := float64(deg[u]), float64(deg[v])
			thetaU := du / (du + dv)
			thetaV := 1 - thetaU
			gU := 1 + (1 - thetaU)
			gV := 1 + (1 - thetaV)

			spread := float64(maxSize - minSize)
			best := 0
			bestScore := -1.0
			// One replica-bitset word covers 64 partitions; load each word of
			// u's and v's sets once instead of testing bit-by-bit through Has.
			var wu, wv uint64
			for p := 0; p < k; p++ {
				if p&63 == 0 {
					wu = rs.Word(u, p>>6)
					wv = rs.Word(v, p>>6)
				}
				bit := uint64(1) << uint(p&63)
				var crep float64
				if wu&bit != 0 {
					crep += gU
				}
				if wv&bit != 0 {
					crep += gV
				}
				cbal := lam * float64(maxSize-sizes[p]) / (eps + spread)
				if score := crep + cbal; score > bestScore {
					bestScore = score
					best = p
				}
			}
			out[j] = int32(best)
			sizes[best]++
			rs.Add(u, best)
			rs.Add(v, best)
			if sizes[best] > maxSize {
				maxSize = sizes[best]
			}
			// minSize only changes when the previous minimum partition grew;
			// rescan lazily in that case.
			if sizes[best]-1 == minSize {
				minSize = sizes[0]
				for p := 1; p < k; p++ {
					if sizes[p] < minSize {
						minSize = sizes[p]
					}
				}
			}
		}
		return sink.commit(blk, out)
	})
}

// StateBytes implements StateSizer: replica bitsets + degree table + sizes.
func (h *HDRF) StateBytes(numVertices, numEdges, k int) int64 {
	words := (k + 63) / 64
	return int64(numVertices)*int64(words)*8 + int64(numVertices)*4 + int64(k)*8
}
