package partition

import (
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// Hashing is PowerGraph's random edge placement: each edge goes to a
// partition chosen by hashing the edge itself. O(1) time per edge, zero
// state, lowest quality (Table I: time Low, quality Low).
type Hashing struct {
	// Seed perturbs the hash so independent runs decorrelate.
	Seed uint64
}

// Name implements Partitioner.
func (h *Hashing) Name() string { return "Hashing" }

// PreferredOrder implements Partitioner. Hashing is order-oblivious; random
// is the paper's stated setting.
func (h *Hashing) PreferredOrder() stream.Order { return stream.Random }

func (h *Hashing) run(src stream.Source, k int, sink *assignSink) error {
	kk := uint64(k)
	return forEachBlock(src, func(blk []graph.Edge) error {
		out := sink.grab(len(blk))
		for j, e := range blk {
			key := uint64(e.Src)<<32 | uint64(e.Dst)
			out[j] = int32(xrand.Hash64(key^h.Seed) % kk)
		}
		return sink.commit(blk, out)
	})
}

// DBH is degree-based hashing (Xie et al., NeurIPS 2014): the edge is
// placed by hashing its lower-degree endpoint, so low-degree vertices keep
// their edges together while high-degree vertices are cut - the right
// trade for power-law graphs. Degrees are the partial (streamed-so-far)
// counts, keeping the algorithm single-pass. The degree table is scratch
// reused across runs.
type DBH struct {
	Seed uint64

	deg []uint32
}

// Name implements Partitioner.
func (d *DBH) Name() string { return "DBH" }

// PreferredOrder implements Partitioner.
func (d *DBH) PreferredOrder() stream.Order { return stream.Random }

func (d *DBH) run(src stream.Source, k int, sink *assignSink) error {
	d.deg = resetUint32(d.deg, src.NumVertices())
	deg := d.deg
	kk := uint64(k)
	err := forEachBlock(src, func(blk []graph.Edge) error {
		out := sink.grab(len(blk))
		for j, e := range blk {
			deg[e.Src]++
			deg[e.Dst]++
			low := e.Src
			if deg[e.Dst] < deg[e.Src] {
				low = e.Dst
			}
			out[j] = int32(xrand.Hash64(uint64(low)^d.Seed) % kk)
		}
		return sink.commit(blk, out)
	})
	sink.hold(4 * int64(cap(deg)))
	return err
}
