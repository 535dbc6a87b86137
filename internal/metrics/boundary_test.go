package metrics

import (
	"testing"

	"repro/internal/graph"
)

// These tests pin behaviour exactly at the 64-bit word boundary of the
// replica bitsets: k=64 is the largest single-word geometry (the top bit of
// word 0 is partition 63), k=128 the largest two-word one. Off-by-one bugs
// in word sizing or cloning surface precisely here - a table that rounds
// (k+63)/64 wrong or clones one word short corrupts partition 63/64/127
// first.

// boundaryPartitions are the partition ids that straddle word edges for a
// given k.
func boundaryPartitions(k int) []int {
	ps := []int{0, 62, 63}
	if k > 64 {
		ps = append(ps, 64, 65, k-1)
	}
	return ps
}

func TestEvaluatorCloneBoundary(t *testing.T) {
	for _, k := range []int{64, 128} {
		const n = 10
		var ev Evaluator
		ev.Begin(n, k)
		// Observe edges whose assignments hit every word-edge partition.
		var edges []graph.Edge
		var assign []int32
		for i, p := range boundaryPartitions(k) {
			v := graph.VertexID(i % n)
			edges = append(edges, graph.Edge{Src: v, Dst: (v + 1) % n})
			assign = append(assign, int32(p))
		}
		if err := ev.Observe(edges, assign); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}

		c := ev.Clone()

		// The clone starts bit-identical: same word content for every vertex,
		// including the top word holding partition k-1.
		for v := 0; v < n; v++ {
			for w := 0; w < ev.rs.Words(); w++ {
				if got, want := c.rs.Word(graph.VertexID(v), w), ev.rs.Word(graph.VertexID(v), w); got != want {
					t.Fatalf("k=%d: clone vertex %d word %d = %#x, want %#x", k, v, w, got, want)
				}
			}
		}

		// Diverge: the original gets partition k-1 on vertex 9, the clone
		// partition 0 on vertex 8. Neither write may leak into the other -
		// value-copied evaluators would fail exactly this (shared bits slice).
		last := []graph.Edge{{Src: 9, Dst: 9}}
		if err := ev.Observe(last, []int32{int32(k - 1)}); err != nil {
			t.Fatal(err)
		}
		if err := c.Observe([]graph.Edge{{Src: 8, Dst: 8}}, []int32{0}); err != nil {
			t.Fatal(err)
		}
		if c.rs.Has(9, k-1) {
			t.Errorf("k=%d: original's post-clone write to partition %d leaked into the clone", k, k-1)
		}
		if !ev.rs.Has(9, k-1) {
			t.Errorf("k=%d: original lost its own write to partition %d", k, k-1)
		}
		if ev.rs.Has(8, 0) && !eqObserved(&ev, 8, 0, edges, assign) {
			t.Errorf("k=%d: clone's write to vertex 8 leaked into the original", k)
		}

		// Both finish with internally consistent quality, and their totals
		// differ by exactly the divergent observations.
		qo, qc := ev.Finish(), c.Finish()
		if qo.Sizes[k-1] != qc.Sizes[k-1]+1 {
			t.Errorf("k=%d: sizes[%d] = %d (original) vs %d (clone)", k, k-1, qo.Sizes[k-1], qc.Sizes[k-1])
		}
		if qo.Sizes[0]+1 != qc.Sizes[0] {
			t.Errorf("k=%d: sizes[0] = %d (original) vs %d (clone)", k, qo.Sizes[0], qc.Sizes[0])
		}
	}
}

// eqObserved reports whether (v, p) was among the shared pre-clone
// observations, in which case seeing it in the original is not leakage.
func eqObserved(ev *Evaluator, v graph.VertexID, p int, edges []graph.Edge, assign []int32) bool {
	for i, e := range edges {
		if (e.Src == v || e.Dst == v) && int(assign[i]) == p {
			return true
		}
	}
	return false
}
