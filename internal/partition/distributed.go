package partition

import (
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/stream"
)

// DistributedCLUGP implements Section III-C's distributed ingest mode:
// "each distributed node accesses partial streaming edges and performs the
// three steps, clustering, game processing, and transformation, locally.
// ... the final graph partitioning result is obtained by combining the
// partial partitioning results of distributed nodes."
//
// The stream is split into Nodes contiguous shards (contiguity preserves
// the crawl locality each local clustering depends on), and each node reads
// only its shard's window [lo, hi) of the source, so no ingest node ever
// holds more than its O(|V|) tables and a decode buffer; each shard runs a
// full, independent CLUGP pipeline, partitioning its edges over the same k
// target partitions; the shard results concatenate into the final
// assignment. The nodes run one after another in this process; because
// they share nothing, their assignments are those of concurrent nodes.
// Because every shard is individually balanced to tau * |shard|/k, the
// union respects tau * |E|/k up to per-shard ceiling slack. Quality gives
// up a little versus single-node CLUGP (shards cannot heal adjacency
// across their boundary), which is the trade the paper accepts for
// horizontal ingest scaling.
type DistributedCLUGP struct {
	// Nodes is the number of ingest nodes (default 4).
	Nodes int
	// Seed drives per-node seeds.
	Seed uint64
}

// Name implements Partitioner.
func (d *DistributedCLUGP) Name() string { return "CLUGP-D" }

// PreferredOrder implements Partitioner.
func (d *DistributedCLUGP) PreferredOrder() stream.Order { return stream.BFS }

// shardBounds splits a stream of numEdges into the contiguous [lo, hi)
// shards the ingest nodes read: Nodes shards (default 4) of
// ceil(numEdges/Nodes) edges, one shard when there are more nodes than
// edges, and none past the stream's end, so a short stream opens fewer
// shards than it has nodes.
func (d *DistributedCLUGP) shardBounds(numEdges int) [][2]int {
	nodes := d.Nodes
	if nodes <= 0 {
		nodes = 4
	}
	if nodes > numEdges {
		nodes = 1
	}
	per := (numEdges + nodes - 1) / nodes
	var out [][2]int
	for lo := 0; lo < numEdges; lo += per {
		out = append(out, [2]int{lo, min(lo+per, numEdges)})
	}
	return out
}

// shard returns the source an ingest node reads: a view's shard is its slice
// (two slice headers, no copy); any other source is read through a window.
func shard(src stream.Source, lo, hi int) stream.Source {
	if vs, ok := src.(*stream.ViewSource); ok {
		return vs.View().Slice(lo, hi).Source(vs.NumVertices())
	}
	return &window{base: src, lo: lo, hi: hi}
}

// window streams edges [lo, hi) of its base. A pass resets the base and
// skips the lo edges before the window, so every pass decodes the prefix
// again: the price of reading one source rather than a seekable handle per
// node. A base that ends before hi is an error.
type window struct {
	base   stream.Source
	lo, hi int
	pos    int // base edges consumed in this pass
}

// NumVertices implements stream.Source.
func (w *window) NumVertices() int { return w.base.NumVertices() }

// Len implements stream.Source.
func (w *window) Len() int { return w.hi - w.lo }

// Reset implements stream.Source.
func (w *window) Reset() error {
	w.pos = 0
	return w.base.Reset()
}

// NextBlock implements stream.Source: the base's next block that reaches
// into the window, cut to it.
func (w *window) NextBlock() ([]graph.Edge, error) {
	for w.pos < w.hi {
		blk, err := w.base.NextBlock()
		if err == io.EOF {
			return nil, fmt.Errorf("stream ended at edge %d, before the shard's end at %d", w.pos, w.hi)
		}
		if err != nil {
			return nil, err
		}
		at := w.pos
		w.pos += len(blk)
		if w.pos > w.lo {
			return blk[max(w.lo-at, 0):min(len(blk), w.hi-at)], nil
		}
	}
	if w.hi == w.base.Len() {
		// The tail shard reads its base to the end, where a file source
		// proves the rest of its payload, as a full pass does.
		_, err := w.base.NextBlock()
		if err == io.EOF && w.pos == w.hi {
			return nil, io.EOF
		}
		if err == nil || err == io.EOF {
			err = fmt.Errorf("stream runs past its declared %d edges", w.hi)
		}
		return nil, err
	}
	return nil, io.EOF
}

// run implements Partitioner. Emission follows stream order, so the nodes
// run one after another, each streaming its shard's assignments through the
// shared sink: the memory profile of a single node (O(|V|) tables, no
// O(|E|) assignment). Nodes are independent and deterministically seeded,
// so the assignment is the one concurrent nodes would produce.
func (d *DistributedCLUGP) run(src stream.Source, k int, sink *assignSink) error {
	for nd, b := range d.shardBounds(src.Len()) {
		// Each node runs a default CLUGP pipeline, seeded deterministically.
		local := CLUGP{Seed: d.Seed ^ (0x9e3779b97f4a7c15 * uint64(nd+1))}
		if err := local.run(shard(src, b[0], b[1]), k, sink); err != nil {
			return fmt.Errorf("clugp-d node %d: %w", nd, err)
		}
	}
	return nil
}

// StateBytes implements StateSizer: each shard's node carries a full
// per-vertex table set (vertices are not range-partitioned across ingest
// nodes, since any shard can touch any vertex).
func (d *DistributedCLUGP) StateBytes(numVertices, numEdges, k int) int64 {
	one := (&CLUGP{}).StateBytes(numVertices, numEdges, k)
	return int64(len(d.shardBounds(numEdges))) * one
}
