package metrics

import (
	"math"
	"math/rand/v2"
	"sync"
	"testing"

	"repro/internal/graph"
)

// randAssigned builds a random edge stream over n vertices with a random
// assignment into k partitions.
func randAssigned(rng *rand.Rand, n, k, m int) ([]graph.Edge, []int32) {
	edges := make([]graph.Edge, m)
	assign := make([]int32, m)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(rng.IntN(n)), Dst: graph.VertexID(rng.IntN(n))}
		assign[i] = int32(rng.IntN(k))
	}
	return edges, assign
}

func qualityEqual(a, b *Quality) bool {
	if a.K != b.K || a.MaxSize != b.MaxSize || a.MinSize != b.MinSize ||
		a.Vertices != b.Vertices || a.Replicas != b.Replicas ||
		a.ReplicationFactor != b.ReplicationFactor || a.RelativeBalance != b.RelativeBalance {
		return false
	}
	if len(a.Sizes) != len(b.Sizes) {
		return false
	}
	for i := range a.Sizes {
		if a.Sizes[i] != b.Sizes[i] {
			return false
		}
	}
	return true
}

// TestEvaluatorValueCopySharesScratch documents the latent scratch-reuse
// hazard the Evaluator doc warns about: a value copy aliases the bitset, so
// driving the copy corrupts the original. The test pins the aliasing (not a
// blessed behaviour - a tripwire so a future fix updates the docs too).
func TestEvaluatorValueCopySharesScratch(t *testing.T) {
	var ev Evaluator
	ev.Begin(8, 4)
	cp := ev // the hazardous value copy
	if err := cp.Observe([]graph.Edge{{Src: 1, Dst: 2}}, []int32{3}); err != nil {
		t.Fatal(err)
	}
	// The copy's write is visible through the original: shared storage.
	if !ev.rs.Has(1, 3) || !ev.seen[2] {
		t.Fatal("value copy no longer shares scratch; update the Evaluator docs and this test")
	}
	// Clone must not alias.
	cl := ev.Clone()
	if err := cl.Observe([]graph.Edge{{Src: 5, Dst: 6}, {Src: 0, Dst: 7}}, []int32{0, 1}); err != nil {
		t.Fatal(err)
	}
	if ev.rs.Has(5, 0) || ev.seen[6] {
		t.Fatal("Clone shares replica scratch with the original")
	}
	if ev.sizes[0] != 0 {
		t.Fatal("Clone shares size counters with the original")
	}
}

// TestEvaluatorCloneIndependent: a clone carries the accumulated state and
// then diverges freely - two clones driven with the same suffix from the
// same prefix produce identical Quality, concurrently and race-free.
func TestEvaluatorCloneIndependent(t *testing.T) {
	rng := rand.New(rand.NewPCG(23, 29))
	const n, k = 200, 70 // k > 64: multi-word clone path
	prefixE, prefixA := randAssigned(rng, n, k, 500)
	suffixE, suffixA := randAssigned(rng, n, k, 500)

	var base Evaluator
	base.Begin(n, k)
	if err := base.Observe(prefixE, prefixA); err != nil {
		t.Fatal(err)
	}
	clones := []*Evaluator{base.Clone(), base.Clone(), base.Clone()}
	var wg sync.WaitGroup
	for _, c := range clones {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Observe(suffixE, suffixA); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	want := clones[0].Finish()
	for _, c := range clones[1:] {
		if got := c.Finish(); !qualityEqual(want, got) {
			t.Fatalf("clones diverged: %+v vs %+v", want, got)
		}
	}
	// The original never saw the suffix.
	if got := base.Finish(); got.Replicas >= want.Replicas && got.MaxSize == want.MaxSize && got.Vertices == want.Vertices {
		t.Fatalf("original tracked the clones' updates: %+v", got)
	}
}

// TestParallelEvaluatorMatchesSerial: for every shard count, the sharded
// fleet produces a Quality bit-identical to the serial Evaluator over the
// same observations - the determinism claim of the parallel hot pass. One
// ParallelEvaluator is driven through every case, so each Begin reshapes
// its table (growing, and shrinking from {257, 66}) and must start clean.
func TestParallelEvaluatorMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewPCG(31, 37))
	var par ParallelEvaluator
	for _, tc := range []struct{ n, k, m int }{
		{1, 1, 10},
		{50, 4, 1000},
		{257, 66, 3000}, // k > 64, n not divisible by typical shard counts
		{40, 8, 600},    // shrinks both n and k after the largest case
	} {
		var serial Evaluator
		edges, assign := randAssigned(rng, tc.n, tc.k, tc.m)
		serial.Begin(tc.n, tc.k)
		for off := 0; off < tc.m; off += 128 {
			end := min(off+128, tc.m)
			if err := serial.Observe(edges[off:end], assign[off:end]); err != nil {
				t.Fatal(err)
			}
		}
		want := serial.Finish()
		for _, shards := range []int{1, 2, 4, 7, 64} {
			par.Begin(tc.n, tc.k, shards)
			for off := 0; off < tc.m; off += 128 {
				end := min(off+128, tc.m)
				if err := par.Observe(edges[off:end], assign[off:end]); err != nil {
					t.Fatal(err)
				}
			}
			got := par.Finish()
			if !qualityEqual(want, got) {
				t.Fatalf("n=%d k=%d shards=%d: %+v vs serial %+v", tc.n, tc.k, shards, got, want)
			}
			if math.Abs(got.ReplicationFactor-want.ReplicationFactor) != 0 {
				t.Fatalf("RF not bit-identical")
			}
		}
	}
}

// TestParallelEvaluatorRejects: invalid assignments error without wedging
// the fleet, and the evaluator survives Begin/Stop/Finish cycling.
func TestParallelEvaluatorRejects(t *testing.T) {
	var par ParallelEvaluator
	par.Begin(10, 2, 4)
	if err := par.Observe([]graph.Edge{{Src: 1, Dst: 2}}, []int32{5}); err == nil {
		t.Fatal("out-of-range partition accepted")
	}
	if err := par.Observe([]graph.Edge{{Src: 1, Dst: 2}}, []int32{1, 0}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	par.Stop()
	par.Stop() // idempotent
	par.Begin(10, 2, 4)
	if err := par.Observe([]graph.Edge{{Src: 3, Dst: 4}}, []int32{1}); err != nil {
		t.Fatal(err)
	}
	q := par.Finish()
	if q.Vertices != 2 || q.Replicas != 2 {
		t.Fatalf("after restart: %+v", q)
	}
	// Finish on a never-begun evaluator must not panic.
	var zero ParallelEvaluator
	_ = zero.Finish()
}

// TestParallelEvaluatorStress hammers the shard fleet with many small
// batches and reused buffers across random shard counts - the -race
// workload for the shared seen slice and per-shard tables.
func TestParallelEvaluatorStress(t *testing.T) {
	rng := rand.New(rand.NewPCG(41, 43))
	const n, k = 500, 9
	edgeBuf := make([]graph.Edge, 64)
	assignBuf := make([]int32, 64)
	for round := 0; round < 20; round++ {
		var par ParallelEvaluator
		par.Begin(n, k, 1+rng.IntN(12))
		total := 0
		for b := 0; b < 50; b++ {
			sz := 1 + rng.IntN(64)
			for i := 0; i < sz; i++ {
				edgeBuf[i] = graph.Edge{Src: graph.VertexID(rng.IntN(n)), Dst: graph.VertexID(rng.IntN(n))}
				assignBuf[i] = int32(rng.IntN(k))
			}
			if err := par.Observe(edgeBuf[:sz], assignBuf[:sz]); err != nil {
				t.Fatal(err)
			}
			total += sz
		}
		q := par.Finish()
		var sum int64
		for _, s := range q.Sizes {
			sum += s
		}
		if sum != int64(total) {
			t.Fatalf("round %d: sizes sum %d, observed %d edges", round, sum, total)
		}
	}
}
