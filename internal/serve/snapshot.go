// Package serve is the online half of the partitioner: a finished
// vertex-cut partitioning, frozen into an immutable Snapshot, answers
// vertex->partition, edge-routing and replica-set queries at high QPS while
// new partition results land behind an epoch pointer swap (Server).
//
// The paper's system (like every production graph engine) partitions
// offline and serves lookups online; everything else in this repository is
// the offline half. A Snapshot holds exactly the state a router needs - the
// per-vertex replica bitsets and the per-partition edge counts - in the
// word-addressable layout the partitioners already maintain, so the query
// hot path is a handful of word loads and allocates nothing.
package serve

import (
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/store"
)

// ErrOutOfRange reports a vertex id at or beyond the snapshot's vertex
// count. It is a sentinel (not wrapped per call) so the query hot path
// stays allocation-free on the error branch too.
var ErrOutOfRange = fmt.Errorf("serve: vertex id out of range")

// Options is NewSnapshot's configuration; it has no fields.
type Options struct{}

// Snapshot is one epoch of serving state: a finished partitioning frozen
// for lookups. Snapshots are immutable after construction - every field is
// written before the snapshot is published and only read afterwards - so
// any number of goroutines may query one concurrently, and a query that
// captured a snapshot keeps answering from it unaffected by later installs.
type Snapshot struct {
	epoch     uint64
	algorithm string
	order     string

	k           int
	words       int
	numVertices int
	numEdges    int64
	sizes       []int64
	table       *metrics.ReplicaSets
}

// NewSnapshot freezes a saved partitioning result into serving form.
// The result's replica table is shared, not copied: callers hand over a
// freshly decoded or sealed table (store.ReadResult, FromRun,
// Builder.Result) and must not write it afterwards. Sizes are copied so
// the snapshot is sealed against later mutation of r.Sizes.
func NewSnapshot(r *store.Result, _ Options) (*Snapshot, error) {
	if r == nil || r.Replicas == nil {
		return nil, fmt.Errorf("serve: nil result")
	}
	if r.K < 1 || len(r.Sizes) != r.K {
		return nil, fmt.Errorf("serve: result has %d sizes for k=%d", len(r.Sizes), r.K)
	}
	if got := r.Replicas.NumVertices(); got != r.NumVertices || r.Replicas.K() != r.K {
		return nil, fmt.Errorf("serve: replica table geometry %dv/%dk disagrees with result %dv/%dk",
			got, r.Replicas.K(), r.NumVertices, r.K)
	}
	return &Snapshot{
		algorithm:   r.Algorithm,
		order:       r.Order,
		k:           r.K,
		words:       r.Replicas.Words(),
		numVertices: r.NumVertices,
		numEdges:    r.NumEdges,
		sizes:       append([]int64(nil), r.Sizes...),
		table:       r.Replicas,
	}, nil
}

// Epoch returns the install generation (0 until a Server installs the
// snapshot; the Server's copy carries the real epoch).
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Algorithm and Order describe how the snapshot was produced.
func (s *Snapshot) Algorithm() string { return s.algorithm }
func (s *Snapshot) Order() string     { return s.order }

// K returns the partition count.
func (s *Snapshot) K() int { return s.k }

// NumVertices returns the vertex-id space; ids in [0, NumVertices) are
// queryable.
func (s *Snapshot) NumVertices() int { return s.numVertices }

// NumEdges returns the number of edges the partitioning placed.
func (s *Snapshot) NumEdges() int64 { return s.numEdges }

// Size returns the number of edges in partition p.
func (s *Snapshot) Size(p int) int64 { return s.sizes[p] }

// AppendSizes appends every partition's edge count to dst and returns it.
func (s *Snapshot) AppendSizes(dst []int64) []int64 { return append(dst, s.sizes...) }

// Count returns |P(v)|, the number of partitions holding a replica of v.
func (s *Snapshot) Count(v graph.VertexID) (int, error) {
	if int(v) >= s.numVertices {
		return 0, ErrOutOfRange
	}
	return s.table.Count(v), nil
}

// Replicas appends the partitions holding v to dst and returns it. With
// cap(dst) >= K the call performs no allocation; callers on the hot path
// pass the same scratch slice every query.
func (s *Snapshot) Replicas(v graph.VertexID, dst []int32) ([]int32, error) {
	if int(v) >= s.numVertices {
		return dst, ErrOutOfRange
	}
	return s.table.Partitions(v, dst), nil
}

// Primary returns v's designated home partition: the lowest partition id
// holding a replica of v, or -1 for a vertex no edge ever touched. Lowest-id
// is the canonical deterministic master choice - it depends only on P(v),
// so every server over the same snapshot data routes identically.
func (s *Snapshot) Primary(v graph.VertexID) (int32, error) {
	if int(v) >= s.numVertices {
		return -1, ErrOutOfRange
	}
	for w := 0; w < s.words; w++ {
		if word := s.table.Word(v, w); word != 0 {
			return int32(w*64 + bits.TrailingZeros64(word)), nil
		}
	}
	return -1, nil
}

// RouteEdge answers "which partition should the edge (src, dst) live in"
// under the vertex-cut placement rule the greedy heuristics stream by,
// evaluated against the frozen tables:
//
//  1. if P(src) and P(dst) intersect, the least-loaded common partition;
//  2. otherwise the least-loaded partition of P(src) union P(dst) (which is
//     whichever side is non-empty when only one is known);
//  3. for two unknown vertices, the globally least-loaded partition.
//
// Ties break to the lowest partition id, and "load" is the snapshot's
// frozen edge counts, so routing is a pure function of the snapshot - every
// replica of the service answers identically, and answers never tear
// across a reload (the whole decision reads one snapshot).
func (s *Snapshot) RouteEdge(src, dst graph.VertexID) (int32, error) {
	if int(src) >= s.numVertices || int(dst) >= s.numVertices {
		return -1, ErrOutOfRange
	}
	if p := s.bestCommon(src, dst, true); p >= 0 {
		return p, nil
	}
	if p := s.bestCommon(src, dst, false); p >= 0 {
		return p, nil
	}
	return s.leastLoaded(), nil
}

// bestCommon returns the least-loaded partition in the intersection
// (intersect=true) or union of P(u) and P(v), or -1 when the combination is
// empty. Word-at-a-time: no candidate list is ever materialized.
func (s *Snapshot) bestCommon(u, v graph.VertexID, intersect bool) int32 {
	best := int32(-1)
	for w := 0; w < s.words; w++ {
		wu, wv := s.table.Word(u, w), s.table.Word(v, w)
		word := wu | wv
		if intersect {
			word = wu & wv
		}
		for word != 0 {
			b := bits.TrailingZeros64(word)
			p := int32(w*64 + b)
			if best < 0 || s.sizes[p] < s.sizes[best] {
				best = p
			}
			word &= word - 1
		}
	}
	return best
}

// leastLoaded returns the globally least-loaded partition (ties lowest id).
func (s *Snapshot) leastLoaded() int32 {
	best := int32(0)
	for p := int32(1); p < int32(s.k); p++ {
		if s.sizes[p] < s.sizes[best] {
			best = p
		}
	}
	return best
}

// Builder accumulates a partitioning into result form as assignments
// stream past, for a caller that chains Observe onto a run's Emit itself.
// It is a thin wrapper over its own metrics.Evaluator, the accumulator
// every run already holds: a caller with the run's Result should use
// FromRun instead, which packages the table that run sealed.
type Builder struct {
	ev metrics.Evaluator
}

// NewBuilder returns a builder for a stream over numVertices vertices and k
// partitions.
func NewBuilder(numVertices, k int) (*Builder, error) {
	if k < 1 {
		return nil, fmt.Errorf("serve: k must be >= 1, got %d", k)
	}
	if numVertices < 0 {
		return nil, fmt.Errorf("serve: negative vertex count %d", numVertices)
	}
	b := &Builder{}
	b.ev.Begin(numVertices, k)
	return b, nil
}

// Observe accumulates one run of streamed edges with their partition
// assignments (assign[i] is the partition of edges[i]).
func (b *Builder) Observe(edges []graph.Edge, assign []int32) error {
	return b.ev.Observe(edges, assign)
}

// Result seals everything observed into the saveable/serveable form. The
// builder's tables are handed over, not copied; the builder must not be
// observed into afterwards.
func (b *Builder) Result(algorithm, order string) *store.Result {
	return newResult(algorithm, order, b.ev.Replicas(), b.ev.Finish().Sizes)
}

// FromRun packages a finished run - in-memory or out-of-core - into result
// form: the replica table its executor sealed and its partition sizes,
// handed over, not copied.
func FromRun(res *partition.Result) (*store.Result, error) {
	if res.Replicas == nil || res.Quality == nil {
		return nil, fmt.Errorf("serve: run carries no replica table")
	}
	return newResult(res.Algorithm, res.Order.String(), res.Replicas, res.Quality.Sizes), nil
}

// newResult is the one packaging of a sealed table and its sizes.
func newResult(algorithm, order string, rs *metrics.ReplicaSets, sizes []int64) *store.Result {
	var edges int64
	for _, sz := range sizes {
		edges += sz
	}
	return &store.Result{
		Algorithm:   algorithm,
		Order:       order,
		K:           rs.K(),
		NumVertices: rs.NumVertices(),
		NumEdges:    edges,
		Sizes:       sizes,
		Replicas:    rs,
	}
}
