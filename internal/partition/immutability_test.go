package partition

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
)

// TestPartitionersNeverMutateCachedStream guards the stream.Cache sharing
// contract: every run served from a cache receives the same base edge slice
// and permutation as every other run, so a single in-place shuffle or edge
// rewrite inside a partitioner would silently corrupt all later cells of a
// suite. Run every algorithm (including the distributed and extension
// partitioners) against cached views and assert the graph's edges and the
// cached permutations are bit-for-bit untouched.
func TestPartitionersNeverMutateCachedStream(t *testing.T) {
	g := webGraph(3000, 77)
	baseline := make([]graph.Edge, len(g.Edges))
	copy(baseline, g.Edges)

	cache := stream.NewCache()
	ps := allPartitioners()
	ps = append(ps,
		&DistributedCLUGP{Nodes: 3, Seed: 1},
		&Grid{Seed: 1},
	)

	// Snapshot each partitioner's cached permutation before any run.
	perms := make(map[stream.Order][]int32)
	for _, p := range ps {
		v := cache.View(g, p.PreferredOrder(), 9)
		if _, ok := perms[p.PreferredOrder()]; !ok {
			perms[p.PreferredOrder()] = append([]int32(nil), v.Perm()...)
		}
	}

	for _, p := range ps {
		if _, err := RunCached(p, g, 8, 9, cache); err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		// Re-running from the same cache must also be unaffected by the
		// previous consumer.
		if _, err := RunCached(p, g, 8, 9, cache); err != nil {
			t.Fatalf("%s (second run): %v", p.Name(), err)
		}
		for i := range baseline {
			if g.Edges[i] != baseline[i] {
				t.Fatalf("%s mutated the shared base edge slice at %d", p.Name(), i)
			}
		}
		for order, want := range perms {
			got := cache.View(g, order, 9).Perm()
			if len(got) != len(want) {
				t.Fatalf("%s changed the %v permutation length", p.Name(), order)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s mutated the cached %v permutation at %d", p.Name(), order, i)
				}
			}
		}
	}
}

// TestPartitionIntoMatchesPartition pins the scratch-reuse contract: a
// partitioner's PartitionInto, run repeatedly on different graphs and ks
// with the same receiver, must produce exactly what a fresh one-shot
// Partition produces - stale replica bitsets, degree tables or load
// counters from a previous run would show up as a divergence.
func TestPartitionIntoMatchesPartition(t *testing.T) {
	gA := webGraph(2500, 21)
	gB := webGraph(1200, 22) // smaller: reused buffers are oversized
	for _, name := range Names() {
		reused, _ := New(name, 5)
		ip, ok := reused.(IntoPartitioner)
		if !ok {
			continue
		}
		for _, tc := range []struct {
			g *graph.Graph
			k int
		}{{gA, 16}, {gB, 16}, {gB, 3}, {gA, 64}} {
			s := stream.NewView(tc.g, reused.PreferredOrder(), 5).Source(tc.g.NumVertices)
			got := make([]int32, s.Len())
			if err := ip.PartitionInto(s, tc.k, got); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			fresh, _ := New(name, 5)
			want, err := fresh.Partition(s, tc.k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s: reused scratch diverges from fresh run at edge %d (k=%d)", name, i, tc.k)
				}
			}
		}
	}
}

// TestPartitionIntoRejectsBadArgs covers the shared precondition checks.
func TestPartitionIntoRejectsBadArgs(t *testing.T) {
	g := webGraph(200, 1)
	s := stream.NewView(g, stream.Random, 1).Source(g.NumVertices)
	h := &HDRF{}
	if err := h.PartitionInto(s, 0, make([]int32, s.Len())); err == nil {
		t.Fatal("k=0 accepted")
	}
	if err := h.PartitionInto(s, 4, make([]int32, s.Len()-1)); err == nil {
		t.Fatal("short assign slice accepted")
	}
}
