// Package engine simulates a PowerGraph-style distributed graph-processing
// system over a vertex-cut partitioning: k logical nodes each own the edges
// of one partition, vertices cut across partitions exist as one master plus
// mirrors, and iterative vertex programs run as gather-apply-scatter (GAS)
// supersteps with explicit mirror->master gather messages and
// master->mirror sync messages.
//
// This is the substitution for the paper's 32-docker-node PowerGraph
// testbed (Figure 8): message and byte counts are exact deterministic
// functions of the partitioning, per-node computation is proportional to
// local edge counts, and the network latency knob plays the role of PUMBA's
// injected RTT. Vertex programs compute real values (PageRank ranks,
// label-propagation labels) that tests validate against single-machine
// reference implementations.
package engine

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/stream"
)

// Placement is the physical layout induced by a vertex-cut partitioning:
// per-node local vertex tables, local edges, master designation and the
// mirror synchronization topology.
type Placement struct {
	K           int
	NumVertices int
	// Master[v] is the node hosting v's master copy. Vertices absent from
	// the stream are placed round-robin with no edges (they still take part
	// in PageRank as dangling vertices).
	Master []int32
	// Nodes are the per-partition local structures.
	Nodes []Node
	// Sync lists one entry per (vertex, mirror) pair: the gather/scatter
	// message topology. len(Sync) == sum_v (|P(v)|-1).
	Sync []SyncPair
	// Replicas is sum_v |P(v)| counting unseen vertices once.
	Replicas int64
}

// Node is one logical machine.
type Node struct {
	ID int
	// Global[l] is the global id of local vertex l.
	Global []graph.VertexID
	// Edges are the node's edges in local vertex ids.
	Edges []LocalEdge
	// IsMaster[l] reports whether this node hosts the master of local
	// vertex l.
	IsMaster []bool
}

// LocalEdge is an edge in node-local vertex ids.
type LocalEdge struct {
	Src, Dst int32
}

// SyncPair connects a mirror copy of a vertex to its master copy.
type SyncPair struct {
	MirrorNode  int32
	MirrorLocal int32
	MasterNode  int32
	MasterLocal int32
}

// NewPlacement lays out a finished partitioning onto k logical nodes.
// Masters are placed on the partition holding the most of the vertex's
// edges (ties to the lowest partition id), the placement PowerGraph's
// loader approximates. The result must carry a materialized assignment
// (out-of-core runs do not); its stream is replayed block by block.
func NewPlacement(res *partition.Result) (*Placement, error) {
	k := res.K
	nv := res.NumVertices
	st := res.Stream
	if st == nil {
		// Hand-built results may carry no stream; treat it as empty.
		st = stream.Of(nil).Source(nv)
	}
	numEdges := st.Len()
	if res.Assign == nil && numEdges > 0 {
		return nil, fmt.Errorf("engine: result has no materialized assignment (out-of-core run)")
	}
	if len(res.Assign) != numEdges {
		return nil, fmt.Errorf("engine: %d assignments for %d edges", len(res.Assign), numEdges)
	}

	rs := metrics.NewReplicaSets(nv, k)
	// Incident-edge counts per (vertex, partition) using a compact hashmap
	// keyed by the replica pair; the number of entries is sum_v |P(v)|.
	counts := make(map[uint64]int32, nv)
	ckey := func(v graph.VertexID, p int32) uint64 { return uint64(v)<<16 | uint64(uint16(p)) }
	err := stream.ForEach(st, func(off int, blk []graph.Edge) error {
		for i, e := range blk {
			p := res.Assign[off+i]
			rs.Add(e.Src, int(p))
			rs.Add(e.Dst, int(p))
			counts[ckey(e.Src, p)]++
			counts[ckey(e.Dst, p)]++
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	pl := &Placement{K: k, NumVertices: nv, Master: make([]int32, nv)}
	scratch := make([]int32, 0, k)
	for v := 0; v < nv; v++ {
		parts := rs.Partitions(graph.VertexID(v), scratch[:0])
		if len(parts) == 0 {
			pl.Master[v] = int32(v % k) // unseen vertex: round-robin master
			continue
		}
		best := parts[0]
		bestCnt := counts[ckey(graph.VertexID(v), best)]
		for _, p := range parts[1:] {
			if c := counts[ckey(graph.VertexID(v), p)]; c > bestCnt {
				best, bestCnt = p, c
			}
		}
		pl.Master[v] = best
	}

	// Build per-node local vertex tables: masters and mirrors both get
	// local slots; unseen vertices get a (edge-less) master slot.
	pl.Nodes = make([]Node, k)
	local := make([]int32, nv*1) // local id of v on the node currently being built; rebuilt per node via epoch trick
	epoch := make([]int32, nv)
	for i := range epoch {
		epoch[i] = -1
	}
	addLocal := func(n *Node, nid int, v graph.VertexID) int32 {
		if epoch[v] == int32(nid) {
			return local[v]
		}
		epoch[v] = int32(nid)
		l := int32(len(n.Global))
		local[v] = l
		n.Global = append(n.Global, v)
		n.IsMaster = append(n.IsMaster, pl.Master[v] == int32(nid))
		return l
	}

	// Group edges by partition first so each node is built contiguously.
	perNode := make([][]graph.Edge, k)
	sizes := make([]int64, k)
	for i := 0; i < numEdges; i++ {
		sizes[res.Assign[i]]++
	}
	for p := 0; p < k; p++ {
		perNode[p] = make([]graph.Edge, 0, sizes[p])
	}
	err = stream.ForEach(st, func(off int, blk []graph.Edge) error {
		for i, e := range blk {
			p := res.Assign[off+i]
			perNode[p] = append(perNode[p], e)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}

	for p := 0; p < k; p++ {
		n := &pl.Nodes[p]
		n.ID = p
		n.Edges = make([]LocalEdge, 0, len(perNode[p]))
		for _, e := range perNode[p] {
			lu := addLocal(n, p, e.Src)
			lv := addLocal(n, p, e.Dst)
			n.Edges = append(n.Edges, LocalEdge{Src: lu, Dst: lv})
		}
	}
	// Unseen vertices (empty replica set): master slot on their
	// round-robin node.
	for v := 0; v < nv; v++ {
		if rs.Count(graph.VertexID(v)) == 0 {
			nid := int(pl.Master[v])
			addLocal(&pl.Nodes[nid], nid, graph.VertexID(v))
		}
	}

	// Sync topology: for every vertex on multiple nodes, link each mirror
	// slot to the master slot. Local ids are recovered by one sweep per
	// node over its Global table.
	masterLocal := make([]int32, nv)
	for i := range masterLocal {
		masterLocal[i] = -1
	}
	for p := range pl.Nodes {
		n := &pl.Nodes[p]
		for l, v := range n.Global {
			if n.IsMaster[l] {
				masterLocal[v] = int32(l)
			}
		}
	}
	for p := range pl.Nodes {
		n := &pl.Nodes[p]
		for l, v := range n.Global {
			pl.Replicas++
			if n.IsMaster[l] {
				continue
			}
			pl.Sync = append(pl.Sync, SyncPair{
				MirrorNode:  int32(p),
				MirrorLocal: int32(l),
				MasterNode:  pl.Master[v],
				MasterLocal: masterLocal[v],
			})
		}
	}
	return pl, nil
}

// MaxLocalEdges returns the largest per-node edge count, the compute
// bottleneck of a superstep.
func (pl *Placement) MaxLocalEdges() int64 {
	var max int64
	for i := range pl.Nodes {
		if n := int64(len(pl.Nodes[i].Edges)); n > max {
			max = n
		}
	}
	return max
}

// ReplicationFactor is sum_v |P(v)| / |V| over this placement, counting
// unseen vertices as a single copy.
func (pl *Placement) ReplicationFactor() float64 {
	if pl.NumVertices == 0 {
		return 0
	}
	return float64(pl.Replicas) / float64(pl.NumVertices)
}
