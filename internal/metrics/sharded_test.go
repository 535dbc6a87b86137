package metrics

import (
	"math/rand/v2"
	"testing"

	"repro/internal/graph"
)

// applyOps drives a flat and a sharded table through the same Add sequence
// and checks every read-side method agrees on every vertex. This is the
// differential property the sharded refactor must preserve: routing by
// vertex range is invisible to readers.
func checkShardedVsFlat(t *testing.T, n, k, shards int, ops [][2]int) {
	t.Helper()
	flat := NewReplicaSets(n, k)
	shd := NewShardedReplicaSets(n, k, shards)
	for _, op := range ops {
		v, p := graph.VertexID(op[0]), op[1]
		flat.Add(v, p)
		shd.Add(v, p)
	}
	if flat.K() != shd.K() || flat.Words() != shd.Words() {
		t.Fatalf("geometry: flat %d/%d sharded %d/%d", flat.K(), flat.Words(), shd.K(), shd.Words())
	}
	var fbuf, sbuf []int32
	for v := 0; v < n; v++ {
		id := graph.VertexID(v)
		if flat.Count(id) != shd.Count(id) {
			t.Fatalf("v=%d: Count flat %d sharded %d", v, flat.Count(id), shd.Count(id))
		}
		for w := 0; w < flat.Words(); w++ {
			if flat.Word(id, w) != shd.Word(id, w) {
				t.Fatalf("v=%d word %d: flat %x sharded %x", v, w, flat.Word(id, w), shd.Word(id, w))
			}
		}
		for p := 0; p < k; p++ {
			if flat.Has(id, p) != shd.Has(id, p) {
				t.Fatalf("v=%d p=%d: Has disagrees", v, p)
			}
		}
		fbuf = flat.Partitions(id, fbuf[:0])
		sbuf = shd.Partitions(id, sbuf[:0])
		if len(fbuf) != len(sbuf) {
			t.Fatalf("v=%d: Partitions lengths %d vs %d", v, len(fbuf), len(sbuf))
		}
		for i := range fbuf {
			if fbuf[i] != sbuf[i] {
				t.Fatalf("v=%d: Partitions[%d] %d vs %d", v, i, fbuf[i], sbuf[i])
			}
		}
	}
	if flat.Bytes() != shd.Bytes() {
		t.Fatalf("Bytes: flat %d sharded %d", flat.Bytes(), shd.Bytes())
	}
}

func randOps(rng *rand.Rand, n, k, count int) [][2]int {
	ops := make([][2]int, count)
	for i := range ops {
		ops[i] = [2]int{rng.IntN(n), rng.IntN(k)}
	}
	return ops
}

// TestShardedMatchesFlat is the property test over the geometry grid,
// including k > 64 (multi-word bitsets), shard counts that do not divide n,
// and more shards than vertices.
func TestShardedMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 13))
	for _, n := range []int{1, 7, 64, 257} {
		for _, k := range []int{1, 2, 63, 64, 65, 130} {
			for _, shards := range []int{1, 2, 3, 7, 64, 1000} {
				checkShardedVsFlat(t, n, k, shards, randOps(rng, n, k, 4*n))
			}
		}
	}
}

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

// TestShardedGeometry pins the range arithmetic: spans cover [0, n) exactly
// once, ShardOf agrees with ShardRange, and trailing shards shrink or clamp.
func TestShardedGeometry(t *testing.T) {
	for _, tc := range []struct{ n, shards int }{
		{10, 3}, {10, 10}, {10, 11}, {1, 4}, {100, 7}, {0, 3},
	} {
		s := NewShardedReplicaSets(tc.n, 4, tc.shards)
		covered := 0
		for i := 0; i < s.NumShards(); i++ {
			lo, hi := s.ShardRange(i)
			if lo != covered {
				t.Fatalf("n=%d shards=%d: shard %d starts at %d, want %d", tc.n, tc.shards, i, lo, covered)
			}
			if hi < lo || hi > tc.n {
				t.Fatalf("n=%d shards=%d: shard %d range [%d,%d)", tc.n, tc.shards, i, lo, hi)
			}
			for v := lo; v < hi; v++ {
				if got := s.ShardOf(graph.VertexID(v)); got != i {
					t.Fatalf("n=%d shards=%d: ShardOf(%d)=%d, want %d", tc.n, tc.shards, v, got, i)
				}
			}
			covered = hi
		}
		if covered != tc.n {
			t.Fatalf("n=%d shards=%d: shards cover %d vertices", tc.n, tc.shards, covered)
		}
	}
}

// TestShardedReset checks the scratch-reuse contract: a table reshaped
// across geometries starts empty each time and still matches flat.
func TestShardedReset(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	s := NewShardedReplicaSets(100, 70, 4)
	for _, op := range randOps(rng, 100, 70, 500) {
		s.Add(graph.VertexID(op[0]), op[1])
	}
	s.Reset(40, 8, 3)
	for v := 0; v < 40; v++ {
		if s.Count(graph.VertexID(v)) != 0 {
			t.Fatalf("vertex %d dirty after Reset", v)
		}
	}
	flat := NewReplicaSets(40, 8)
	for _, op := range randOps(rng, 40, 8, 200) {
		flat.Add(graph.VertexID(op[0]), op[1])
		s.Add(graph.VertexID(op[0]), op[1])
	}
	for v := 0; v < 40; v++ {
		for p := 0; p < 8; p++ {
			if flat.Has(graph.VertexID(v), p) != s.Has(graph.VertexID(v), p) {
				t.Fatalf("after Reset: v=%d p=%d disagrees", v, p)
			}
		}
	}
}

// TestShardedMerge: merge of independently accumulated tables equals the
// flat table fed the union of both op sequences; geometry mismatches error.
func TestShardedMerge(t *testing.T) {
	rng := rand.New(rand.NewPCG(17, 19))
	const n, k, shards = 120, 96, 5
	a := NewShardedReplicaSets(n, k, shards)
	b := NewShardedReplicaSets(n, k, shards)
	flat := NewReplicaSets(n, k)
	for _, op := range randOps(rng, n, k, 400) {
		a.Add(graph.VertexID(op[0]), op[1])
		flat.Add(graph.VertexID(op[0]), op[1])
	}
	for _, op := range randOps(rng, n, k, 400) {
		b.Add(graph.VertexID(op[0]), op[1])
		flat.Add(graph.VertexID(op[0]), op[1])
	}
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	for v := 0; v < n; v++ {
		for w := 0; w < flat.Words(); w++ {
			if flat.Word(graph.VertexID(v), w) != a.Word(graph.VertexID(v), w) {
				t.Fatalf("merged table diverges at v=%d word %d", v, w)
			}
		}
	}
	for _, bad := range []*ShardedReplicaSets{
		NewShardedReplicaSets(n+1, k, shards),
		NewShardedReplicaSets(n, k+1, shards),
		NewShardedReplicaSets(n, k, shards+1),
	} {
		if err := a.Merge(bad); err == nil {
			t.Fatal("geometry mismatch accepted")
		}
	}
}

// FuzzShardedVsFlat is the fuzz form of the differential property: arbitrary
// geometry and op bytes, sharded must agree with flat on every read.
func FuzzShardedVsFlat(f *testing.F) {
	f.Add(uint16(64), uint8(65), uint8(3), []byte{0, 1, 2, 3, 255, 254})
	f.Add(uint16(7), uint8(2), uint8(9), []byte{1, 1, 1, 1})
	f.Add(uint16(300), uint8(130), uint8(16), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0})
	f.Fuzz(func(t *testing.T, nRaw uint16, kRaw, shardsRaw uint8, opBytes []byte) {
		n := int(nRaw)%512 + 1
		k := int(kRaw)%200 + 1
		shards := int(shardsRaw)%40 + 1
		ops := make([][2]int, 0, len(opBytes)/2)
		for i := 0; i+1 < len(opBytes); i += 2 {
			ops = append(ops, [2]int{int(opBytes[i]) % n, int(opBytes[i+1]) % k})
		}
		checkShardedVsFlat(t, n, k, shards, ops)
	})
}
