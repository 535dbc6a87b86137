package metrics

import (
	"testing"

	"repro/internal/graph"
)

// TestEvaluatorExcludesIsolatedVertices: a vertex counts toward RF iff its
// replica set is non-empty, so vertices no edge touches - here 6 of 10,
// three of them above the highest touched id - are left out of Vertices.
func TestEvaluatorExcludesIsolatedVertices(t *testing.T) {
	var ev Evaluator
	ev.Begin(10, 3)
	edges := []graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 6}, {Src: 1, Dst: 1}}
	if err := ev.Observe(edges, []int32{0, 2, 1}); err != nil {
		t.Fatal(err)
	}
	q := ev.Finish()
	// P(1) = {0, 1}, P(2) = {0, 2}, P(6) = {2}.
	if q.Vertices != 3 || q.Replicas != 5 {
		t.Fatalf("Vertices = %d, Replicas = %d; want 3 and 5", q.Vertices, q.Replicas)
	}
	if want := 5.0 / 3; q.ReplicationFactor != want {
		t.Fatalf("RF = %v, want %v", q.ReplicationFactor, want)
	}
}

// TestEvaluatorHandsOverTable: the table Replicas returns after Finish
// belongs to the caller. A later Begin and Observe on the same evaluator
// accumulate into a new table and leave the handed-over one untouched.
func TestEvaluatorHandsOverTable(t *testing.T) {
	var ev Evaluator
	ev.Begin(4, 2)
	if err := ev.Observe([]graph.Edge{{Src: 0, Dst: 1}}, []int32{1}); err != nil {
		t.Fatal(err)
	}
	ev.Finish()
	kept := ev.Replicas()
	before := append([]uint64(nil), kept.bits...)

	ev.Begin(4, 2)
	if err := ev.Observe([]graph.Edge{{Src: 2, Dst: 3}, {Src: 0, Dst: 3}}, []int32{0, 0}); err != nil {
		t.Fatal(err)
	}
	ev.Finish()
	if ev.Replicas() == kept {
		t.Fatal("Begin reused the handed-over table")
	}
	if kept.NumVertices() != 4 || kept.K() != 2 {
		t.Fatalf("handed-over table reshaped to %dv/%dk", kept.NumVertices(), kept.K())
	}
	for i, w := range kept.bits {
		if w != before[i] {
			t.Fatalf("handed-over word %d changed from %#x to %#x", i, before[i], w)
		}
	}
}
