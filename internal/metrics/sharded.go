package metrics

// ShardedReplicaSets is ReplicaSets split by vertex range: shard s owns the
// contiguous vertices [s*span, (s+1)*span), each with its own independently
// allocated word-addressable bitset. This is the refactor that unlocks
// concurrency over the "global status table" the paper blames for the poor
// multi-threaded scaling of heuristic partitioners: workers that own
// disjoint shards mutate disjoint memory, so the table needs no locks - a
// worker simply filters each edge batch to the vertex range it owns.
//
// The table has no vertex-routed reads or writes: each shard is a plain
// *ReplicaSets indexed by local vertex id (Shard, ShardRange), which is all
// ParallelEvaluator's shard workers need. The zero value is ready for Reset.
type ShardedReplicaSets struct {
	n      int
	shards int
	span   int // vertices per shard, ceil(n/shards)
	tabs   []ReplicaSets
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
	s.n, s.shards, s.span = n, shards, span
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
// shards gives span=5 and 52 shards); vertex v lies in shard v/span.
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

// NumShards returns the shard count.
func (s *ShardedReplicaSets) NumShards() int { return s.shards }

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
