package metrics

import (
	"fmt"

	"repro/internal/graph"
)

// ShardedReplicaSets is ReplicaSets split by vertex range: shard s owns the
// contiguous vertices [s*span, (s+1)*span), each with its own independently
// allocated word-addressable bitset. This is the refactor that unlocks
// concurrency over the "global status table" the paper blames for the poor
// multi-threaded scaling of heuristic partitioners: workers that own
// disjoint shards mutate disjoint memory, so the table needs no locks - a
// worker simply filters each edge batch to the vertex range it owns.
//
// Per-shard views are plain *ReplicaSets, so shard owners use the exact
// word-addressable API the flat table has; the top-level Add/Has/Count/Word
// methods route by vertex and agree bit-for-bit with a flat table of the
// same contents (held by TestShardedMatchesFlat and FuzzShardedVsFlat).
type ShardedReplicaSets struct {
	n, k   int
	shards int
	span   int // vertices per shard, ceil(n/shards)
	tabs   []ReplicaSets
}

// NewShardedReplicaSets returns an empty table for n vertices and k
// partitions, split into the given number of vertex-range shards.
func NewShardedReplicaSets(n, k, shards int) *ShardedReplicaSets {
	s := &ShardedReplicaSets{}
	s.Reset(n, k, shards)
	return s
}

// Reset clears and resizes the table, reusing each shard's bit storage when
// large enough - the same scratch-reuse contract as ReplicaSets.Reset.
// shards < 1 means one shard; shards is clamped to n so no shard is empty
// (except on an empty vertex set).
func (s *ShardedReplicaSets) Reset(n, k, shards int) {
	// ShardGeometry clamps shards to n and shrinks trailing empty spans
	// (n=257, shards=64 gives span=5 and 52 shards); on an empty vertex set
	// it yields one empty shard, so ShardRange(0) = [0, 0).
	shards, span := ShardGeometry(n, shards)
	s.n, s.k, s.shards, s.span = n, k, shards, span
	if cap(s.tabs) < shards {
		tabs := make([]ReplicaSets, shards)
		copy(tabs, s.tabs)
		s.tabs = tabs
	}
	s.tabs = s.tabs[:shards]
	for i := 0; i < shards; i++ {
		lo, hi := s.ShardRange(i)
		s.tabs[i].Reset(hi-lo, k)
	}
}

// ShardGeometry resolves the effective vertex-range shard layout for n
// vertices split into the requested number of shards: the shard count is
// clamped to n so no shard is empty, span is ceil(n/shards), and the count
// shrinks to the number of spans actually needed (n=257 requested as 64
// shards gives span=5 and 52 shards). ShardOf(v) = v/span.
// The result is idempotent: ShardGeometry(n, eff) returns (eff, span) again.
func ShardGeometry(n, shards int) (eff, span int) {
	if shards < 1 {
		shards = 1
	}
	if shards > n && n > 0 {
		shards = n
	}
	span = (n + shards - 1) / shards
	if span < 1 {
		span = 1
	}
	if n > 0 {
		eff = (n + span - 1) / span
	} else {
		eff = 1
	}
	return eff, span
}

// K returns the number of partitions.
func (s *ShardedReplicaSets) K() int { return s.k }

// Words returns the number of 64-bit words per vertex, (k+63)/64.
func (s *ShardedReplicaSets) Words() int { return (s.k + 63) / 64 }

// NumShards returns the shard count.
func (s *ShardedReplicaSets) NumShards() int { return s.shards }

// ShardOf returns the shard owning vertex v.
func (s *ShardedReplicaSets) ShardOf(v graph.VertexID) int { return int(v) / s.span }

// ShardRange returns the vertex range [lo, hi) shard i owns.
func (s *ShardedReplicaSets) ShardRange(i int) (lo, hi int) {
	lo = i * s.span
	hi = lo + s.span
	if hi > s.n {
		hi = s.n
	}
	return lo, hi
}

// Shard returns shard i's table, indexed by local vertex id (v - lo for
// ShardRange(i) = [lo, hi)). A worker that owns shard i may mutate it freely
// while other workers mutate their own shards; no synchronization is needed
// beyond the handoff that assigns ownership.
func (s *ShardedReplicaSets) Shard(i int) *ReplicaSets { return &s.tabs[i] }

// Add records that partition p holds vertex v.
func (s *ShardedReplicaSets) Add(v graph.VertexID, p int) {
	s.tabs[int(v)/s.span].Add(v-graph.VertexID(int(v)/s.span*s.span), p)
}

// Has reports whether partition p holds vertex v.
func (s *ShardedReplicaSets) Has(v graph.VertexID, p int) bool {
	sh := int(v) / s.span
	return s.tabs[sh].Has(v-graph.VertexID(sh*s.span), p)
}

// Word returns the w-th 64-bit word of v's partition set.
func (s *ShardedReplicaSets) Word(v graph.VertexID, w int) uint64 {
	sh := int(v) / s.span
	return s.tabs[sh].Word(v-graph.VertexID(sh*s.span), w)
}

// Count returns |P(v)|.
func (s *ShardedReplicaSets) Count(v graph.VertexID) int {
	sh := int(v) / s.span
	return s.tabs[sh].Count(v - graph.VertexID(sh*s.span))
}

// Partitions appends the partitions holding v to dst and returns it.
func (s *ShardedReplicaSets) Partitions(v graph.VertexID, dst []int32) []int32 {
	sh := int(v) / s.span
	return s.tabs[sh].Partitions(v-graph.VertexID(sh*s.span), dst)
}

// Merge ORs every replica bit of o into s. The two tables must have the
// same geometry (vertices, partitions, shard count); merging is how
// independently accumulated per-worker tables combine into one, and it is
// exact: bit i is set afterwards iff it was set in either table.
func (s *ShardedReplicaSets) Merge(o *ShardedReplicaSets) error {
	if s.n != o.n || s.k != o.k || s.shards != o.shards {
		return fmt.Errorf("metrics: merge geometry mismatch: %dv/%dk/%dsh vs %dv/%dk/%dsh",
			s.n, s.k, s.shards, o.n, o.k, o.shards)
	}
	for i := range s.tabs {
		dst, src := s.tabs[i].bits, o.tabs[i].bits
		for w := range dst {
			dst[w] |= src[w]
		}
	}
	return nil
}

// Bytes returns the memory footprint of the table (all shards).
func (s *ShardedReplicaSets) Bytes() int64 {
	var b int64
	for i := range s.tabs {
		b += s.tabs[i].Bytes()
	}
	return b
}
