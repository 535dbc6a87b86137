package partition

import (
	"fmt"
	"io"
	"slices"

	"repro/internal/stream"
)

// DistributedCLUGP implements Section III-C's distributed ingest mode:
// "each distributed node accesses partial streaming edges and performs the
// three steps, clustering, game processing, and transformation, locally.
// ... the final graph partitioning result is obtained by combining the
// partial partitioning results of distributed nodes."
//
// The stream is split into Nodes contiguous shards (contiguity preserves
// the crawl locality each local clustering depends on) via the source's
// Segment capability, so no ingest node ever holds more than its O(|V|)
// tables and a decode buffer; each shard runs a full, independent CLUGP
// pipeline, partitioning its edges over the same k target partitions; the
// shard results concatenate into the final assignment. The nodes run one
// after another in this process; because they share nothing, their
// assignments are those of concurrent nodes. Because every shard is
// individually balanced to tau * |shard|/k, the union respects
// tau * |E|/k up to per-shard ceiling slack. Quality gives up a little
// versus single-node CLUGP (shards cannot heal adjacency across their
// boundary), which is the trade the paper accepts for horizontal ingest
// scaling.
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

// nodeCount resolves the effective node count for a stream of numEdges.
func (d *DistributedCLUGP) nodeCount(numEdges int) int {
	nodes := d.Nodes
	if nodes <= 0 {
		nodes = 4
	}
	if nodes > numEdges {
		nodes = 1
	}
	return nodes
}

// shards opens one independent sub-source per ingest node. The source must
// support segmentation (every source in this repository does: in-memory
// views slice, file sources reopen and seek).
func (d *DistributedCLUGP) shards(src stream.Source, nodes int) ([]stream.Source, error) {
	seg, ok := src.(stream.Segmenter)
	if !ok {
		return nil, fmt.Errorf("clugp-d: source %T cannot be segmented across ingest nodes", src)
	}
	numEdges := src.Len()
	per := (numEdges + nodes - 1) / nodes
	var out []stream.Source
	for nd := 0; nd < nodes; nd++ {
		lo := nd * per
		if lo >= numEdges {
			break
		}
		hi := lo + per
		if hi > numEdges {
			hi = numEdges
		}
		sub, err := seg.Segment(lo, hi)
		if err != nil {
			closeShards(out)
			return nil, fmt.Errorf("clugp-d node %d: %w", nd, err)
		}
		out = append(out, sub)
	}
	return out, nil
}

func closeShards(shards []stream.Source) {
	for _, s := range shards {
		if c, ok := s.(io.Closer); ok {
			c.Close()
		}
	}
}

// run implements Partitioner. Emission follows stream order, so the nodes
// run one after another, each streaming its shard's assignments through the
// shared sink: the memory profile of a single node (O(|V|) tables, no
// O(|E|) assignment). Nodes are independent and deterministically seeded,
// so the assignment is the one concurrent nodes would produce.
func (d *DistributedCLUGP) run(src stream.Source, k int, sink *assignSink) error {
	shards, err := d.shards(src, d.nodeCount(src.Len()))
	if err != nil {
		return err
	}
	defer closeShards(shards)
	// The nodes read only their shards, never src itself.
	sink.decodeAhead = slices.ContainsFunc(shards, decodesAhead)
	for nd, sub := range shards {
		// Each node runs a default CLUGP pipeline, seeded deterministically.
		local := CLUGP{Seed: d.Seed ^ (0x9e3779b97f4a7c15 * uint64(nd+1))}
		if err := local.run(sub, k, sink); err != nil {
			return fmt.Errorf("clugp-d node %d: %w", nd, err)
		}
	}
	return nil
}

// StateBytes implements StateSizer: each node carries a full per-vertex
// table set (vertices are not range-partitioned across ingest nodes, since
// any shard can touch any vertex).
func (d *DistributedCLUGP) StateBytes(numVertices, numEdges, k int) int64 {
	nodes := d.Nodes
	if nodes <= 0 {
		nodes = 4
	}
	one := (&CLUGP{}).StateBytes(numVertices, numEdges, k)
	return int64(nodes) * one
}
