package metrics

import "testing"

// TestShardGeometry pins the layout rule: shards clamp to n, spans cover
// exactly [0, n), no shard is empty, and the result is idempotent (feeding
// the effective count back yields the same layout) - the property that lets
// ShardedReplicaSets and the ParallelEvaluator's shard workers agree on
// "shard of v" when each resolves the requested count independently.
func TestShardGeometry(t *testing.T) {
	for _, n := range []int{0, 1, 2, 7, 64, 100, 257, 1000} {
		for _, req := range []int{0, 1, 2, 3, 7, 52, 64, 1000} {
			eff, span := ShardGeometry(n, req)
			if eff < 1 || span < 1 {
				t.Fatalf("n=%d req=%d: eff=%d span=%d", n, req, eff, span)
			}
			if n > 0 {
				if (eff-1)*span >= n || eff*span < n {
					t.Fatalf("n=%d req=%d: %d shards of span %d do not tile [0,%d)", n, req, eff, span, n)
				}
				if eff > n {
					t.Fatalf("n=%d req=%d: %d shards exceed vertex count", n, req, eff)
				}
			}
			if eff2, span2 := ShardGeometry(n, eff); eff2 != eff || span2 != span {
				t.Fatalf("n=%d req=%d: not idempotent: (%d,%d) -> (%d,%d)", n, req, eff, span, eff2, span2)
			}
		}
	}
}

// TestShardedGeometry pins the range arithmetic of a table shaped by
// Reset: spans cover [0, n) exactly once, every vertex in shard i's range
// has v/span = i for ShardGeometry's span, each shard's table is sized to
// its range, and trailing shards shrink or clamp. One table is reshaped
// through every case.
func TestShardedGeometry(t *testing.T) {
	var s ShardedReplicaSets
	for _, tc := range []struct{ n, shards int }{
		{10, 3}, {10, 10}, {10, 11}, {1, 4}, {100, 7}, {0, 3},
	} {
		s.Reset(tc.n, 4, tc.shards)
		eff, span := ShardGeometry(tc.n, tc.shards)
		if s.NumShards() != eff {
			t.Fatalf("n=%d shards=%d: %d shards, ShardGeometry says %d", tc.n, tc.shards, s.NumShards(), eff)
		}
		covered := 0
		for i := 0; i < s.NumShards(); i++ {
			lo, hi := s.ShardRange(i)
			if lo != covered {
				t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", tc.n, tc.shards, i, lo, covered)
			}
			if hi < lo || hi > tc.n {
				t.Fatalf("n=%d shards=%d: shard %d range [%d,%d)", tc.n, tc.shards, i, lo, hi)
			}
			if got := s.Shard(i).NumVertices(); got != hi-lo {
				t.Fatalf("n=%d shards=%d: shard %d table holds %d vertices, range has %d", tc.n, tc.shards, i, got, hi-lo)
			}
			for v := lo; v < hi; v++ {
				if got := v / span; got != i {
					t.Fatalf("n=%d shards=%d: vertex %d has v/span=%d, want %d", tc.n, tc.shards, v, got, i)
				}
			}
			covered = hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d shards=%d: shards cover %d vertices", tc.n, tc.shards, covered)
		}
	}
}
