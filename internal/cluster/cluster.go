// Package cluster implements the paper's first pass: streaming vertex
// clustering with the allocation-splitting-migration framework (Section IV,
// Algorithm 2). It extends Hollocou et al.'s allocation-migration streaming
// clustering ("Holl") with a splitting operation that chops high-degree
// vertices out of full clusters, which Theorem 1 shows can only lower the
// eventual replication factor.
//
// The package also builds the cluster graph (intra-cluster edge counts and
// inter-cluster edge weights) consumed by the second pass's partitioning
// game.
package cluster

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/stream"
)

// ID identifies a cluster. None marks a vertex not yet allocated.
type ID = int32

// None is the cluster id of an unallocated vertex.
const None ID = -1

// Config controls the streaming clustering pass.
type Config struct {
	// Vmax is the maximum cluster volume (sum of member master-vertex
	// degrees). The paper sets Vmax = |E|/k following Hollocou's guidance.
	Vmax int64
	// DisableSplitting reverts to Holl's allocation-migration framework
	// (the CLUGP-S ablation of Figure 9): full clusters are never split;
	// instead overflowing vertices keep accumulating volume in place and
	// new neighbours spill into fresh singleton clusters via allocation.
	DisableSplitting bool
	// MigrateMaxDegree caps the observed degree up to which a vertex may
	// still migrate between clusters (Algorithm 2 lines 20-26). Hollocou's
	// volume heuristic assumes community-sized vmax; at the paper's
	// partition-sized Vmax = |E|/k, unrestricted migration lets large
	// clusters steal well-established vertices through any single
	// cross-link, scrambling the clustering (measured: intra-cluster edge
	// fraction drops from ~0.7 to ~0.2 on site-structured web streams).
	// Moving a vertex with committed neighbours sacrifices those intra
	// edges for one new edge, so only weakly-committed vertices should
	// move. 0 means 1 (only first-touch vertices migrate); -1 removes the
	// cap (the literal Algorithm 2 behaviour, kept for comparison runs).
	MigrateMaxDegree int
}

// Result is the output of the clustering pass: the vertex->cluster mapping
// table plus the degree and divided-vertex side tables needed by the
// partition-transformation pass.
type Result struct {
	// NumClusters counts allocated cluster ids (including emptied ones;
	// Compacted() relabels densely).
	NumClusters int
	// Assign maps each vertex to its final cluster, or None if the vertex
	// never appeared in the stream.
	Assign []ID
	// Degree is the total degree observed for each vertex during the pass
	// (the paper's deg[] array).
	Degree []uint32
	// Volume is each cluster's volume under the paper's bookkeeping. The
	// global sum always equals the degree sum; individual entries can drift
	// from the "sum of member degrees" ideal because historical increments
	// do not follow a migrating vertex (this matches the published
	// algorithm).
	Volume []int64
	// SplitFrom[v] is the cluster v was most recently split out of, i.e.
	// where v's mirror vertex lives, or None if v never triggered a
	// splitting operation (Algorithm 2 lines 11 and 16; all None when
	// splitting is disabled). The transformation pass uses it to recognise
	// assignments that are free of new replicas ("e will be assigned to the
	// partitions where u's mirror vertex belongs", Section III-C).
	SplitFrom []ID
	// Splits counts splitting operations performed.
	Splits int64
	// Migrations counts migration operations performed.
	Migrations int64
}

// Run performs one pass of streaming clustering over the edge source (the
// source's vertex count must exceed every edge endpoint). The pass consumes
// the stream block by block and keeps only the O(|V|) mapping tables, so a
// file-backed source clusters a graph that was never materialized.
func Run(src stream.Source, cfg Config) (*Result, error) {
	if cfg.Vmax <= 0 {
		return nil, fmt.Errorf("cluster: Vmax must be positive, got %d", cfg.Vmax)
	}
	numVertices := src.NumVertices()
	migCap := uint32(1)
	switch {
	case cfg.MigrateMaxDegree < 0:
		migCap = ^uint32(0)
	case cfg.MigrateMaxDegree > 0:
		migCap = uint32(cfg.MigrateMaxDegree)
	}
	// Every first-seen vertex opens a cluster and every split one more, so
	// the volume table is sized once: a cluster per vertex, plus headroom
	// for one split of each vertex that can ever be shed. Splitting sheds
	// only a vertex of degree at least Vmax/4 (shouldShed), and degrees sum
	// to 2|E|, so at most 8|E|/Vmax vertices qualify. A stream that sheds
	// such vertices more often than that grows the table by append.
	var hubs int64
	if !cfg.DisableSplitting {
		hubs = min(int64(numVertices), 8*int64(src.Len())/cfg.Vmax)
	}
	st := state{
		assign:    make([]ID, numVertices),
		degree:    make([]uint32, numVertices),
		splitFrom: make([]ID, numVertices),
		volume:    make([]int64, 0, int64(numVertices)+hubs),
		vmax:      cfg.Vmax,
		split:     !cfg.DisableSplitting,
		migCap:    migCap,
	}
	for i := range st.assign {
		st.assign[i] = None
		st.splitFrom[i] = None
	}
	err := stream.ForEach(src, func(_ int, blk []graph.Edge) error {
		for _, e := range blk {
			if int(e.Src) >= numVertices || int(e.Dst) >= numVertices {
				return fmt.Errorf("cluster: edge %d->%d out of range (n=%d)", e.Src, e.Dst, numVertices)
			}
			st.ingest(e.Src, e.Dst)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Result{
		NumClusters: len(st.volume),
		Assign:      st.assign,
		Degree:      st.degree,
		Volume:      st.volume,
		SplitFrom:   st.splitFrom,
		Splits:      st.splits,
		Migrations:  st.migrations,
	}, nil
}

// Bytes is the memory r's tables hold: each one's capacity times its
// element size.
func (r *Result) Bytes() int64 {
	return 4*int64(cap(r.Assign)+cap(r.Degree)+cap(r.SplitFrom)) + 8*int64(cap(r.Volume))
}

type state struct {
	assign     []ID
	degree     []uint32
	splitFrom  []ID
	volume     []int64
	vmax       int64
	migCap     uint32
	split      bool
	splits     int64
	migrations int64
}

func (s *state) newCluster() ID {
	s.volume = append(s.volume, 0)
	return ID(len(s.volume) - 1)
}

// shouldShed gates the splitting operation on the shed vertex's degree:
// it must account for a hub's share of the cluster volume (the paper's
// "chop high-degree vertices"), yet still fit inside a fresh cluster with
// room to collect its ongoing star - a vertex with degree beyond Vmax
// saturates any cluster it lands in, so shedding it helps nothing.
func shouldShed(deg uint32, vmax int64) bool {
	d := int64(deg)
	return 4*d >= vmax && 4*d <= 3*vmax
}

// ingest processes one streamed edge, following Algorithm 2 line by line:
// allocation (4-8), splitting (9-18), migration (19-26).
func (s *state) ingest(u, v graph.VertexID) {
	// Allocation: first-seen vertices start as singleton clusters.
	if s.assign[u] == None {
		s.assign[u] = s.newCluster()
	}
	if s.assign[v] == None {
		s.assign[v] = s.newCluster()
	}
	cu, cv := s.assign[u], s.assign[v]
	s.degree[u]++
	s.volume[cu]++
	// A self-loop contributes 2 to the vertex degree and its cluster volume.
	s.degree[v]++
	s.volume[cv]++

	if s.split {
		// Splitting handles the Figure 2 scenario: a high-degree vertex in
		// a full cluster keeps receiving fresh neighbours; without
		// splitting each would be stranded in its own singleton, one mirror
		// of the hub apiece. Shedding the hub into a fresh cluster lets its
		// ongoing star collect around it (the newcomer and its successors
		// follow by migration), leaving a single mirror behind (the divided
		// mark). Two gates keep the operation surgical, per the paper's
		// motivation that splitting "chops high-degree vertices":
		// the partner must be a newcomer (an established<->established edge
		// into a full cluster is an ordinary cut, and shedding would tear a
		// well-placed vertex from its neighbourhood), and the vertex must
		// carry a hub's share of its cluster's volume.
		if s.volume[cu] >= s.vmax && s.degree[v] <= s.migCap && shouldShed(s.degree[u], s.vmax) {
			nc := s.newCluster()
			s.assign[u] = nc
			s.splitFrom[u] = cu
			s.volume[cu] -= int64(s.degree[u])
			s.volume[nc] += int64(s.degree[u])
			s.splits++
		}
		if u != v && s.volume[s.assign[v]] >= s.vmax && s.degree[u] <= s.migCap && shouldShed(s.degree[v], s.vmax) {
			cv = s.assign[v]
			nc := s.newCluster()
			s.assign[v] = nc
			s.splitFrom[v] = cv
			s.volume[cv] -= int64(s.degree[v])
			s.volume[nc] += int64(s.degree[v])
			s.splits++
		}
	}

	// Migration: pull the endpoint in the smaller cluster into the bigger
	// cluster, provided neither side is full and the mover is not yet
	// committed to its cluster (degree within migCap).
	cu, cv = s.assign[u], s.assign[v]
	if cu == cv {
		return
	}
	if s.volume[cu] < s.vmax && s.volume[cv] < s.vmax {
		if s.volume[cu] <= s.volume[cv] && s.degree[u] <= s.migCap {
			s.assign[u] = cv
			s.volume[cu] -= int64(s.degree[u])
			s.volume[cv] += int64(s.degree[u])
			s.migrations++
		} else if s.volume[cv] < s.volume[cu] && s.degree[v] <= s.migCap {
			s.assign[v] = cu
			s.volume[cv] -= int64(s.degree[v])
			s.volume[cu] += int64(s.degree[v])
			s.migrations++
		}
	}
}

// Compact relabels clusters densely so that only clusters with at least one
// member vertex keep an id, returning the member counts per new id. Assign
// and Volume are rewritten in place; Volume of a new id is the sum of old
// volumes mapped onto it (emptied clusters keep their residual volume
// attributed nowhere, so compacted volumes are recomputed from degrees).
func (r *Result) Compact() (members []int32) {
	// The old volumes are recomputed below, so their table holds the
	// remap: remap[c] is old cluster c's new id, or None.
	remap := r.Volume[:r.NumClusters]
	for i := range remap {
		remap[i] = int64(None)
	}
	next := ID(0)
	for _, c := range r.Assign {
		if c == None {
			continue
		}
		if remap[c] == int64(None) {
			remap[c] = int64(next)
			next++
		}
	}
	members = make([]int32, next)
	volume := make([]int64, next)
	for v, c := range r.Assign {
		if c == None {
			continue
		}
		nc := ID(remap[c])
		r.Assign[v] = nc
		members[nc]++
		volume[nc] += int64(r.Degree[v])
	}
	// SplitFrom entries pointing at emptied clusters become None: the
	// mirror's cluster dissolved, so there is no free partition to exploit.
	for v, c := range r.SplitFrom {
		if c != None {
			r.SplitFrom[v] = ID(remap[c])
		}
	}
	r.NumClusters = int(next)
	r.Volume = volume
	return members
}
