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

// TestEvaluatorEmptyRunTable: a run that observes nothing still hands over
// an empty table of its shape, whether Replicas is asked before Finish
// (as serve.Builder.Result does) or after it, and both return the same
// table.
func TestEvaluatorEmptyRunTable(t *testing.T) {
	for _, replicasFirst := range []bool{true, false} {
		var ev Evaluator
		ev.Begin(7, 70)
		var rs *ReplicaSets
		if replicasFirst {
			rs = ev.Replicas()
		}
		q := ev.Finish()
		if !replicasFirst {
			rs = ev.Replicas()
		}
		if rs == nil || rs != ev.Replicas() {
			t.Fatalf("replicasFirst=%v: Replicas returned %p then %p", replicasFirst, rs, ev.Replicas())
		}
		if rs.NumVertices() != 7 || rs.K() != 70 {
			t.Fatalf("replicasFirst=%v: empty-run table is %dv/%dk, want 7v/70k", replicasFirst, rs.NumVertices(), rs.K())
		}
		if q.Vertices != 0 || q.Replicas != 0 || len(q.Sizes) != 70 {
			t.Fatalf("replicasFirst=%v: empty-run quality %+v", replicasFirst, q)
		}
	}
}

// TestEvaluatorBeginAfterFinishLeavesTable: Begin after Finish drops the
// handed-over table before the next run makes its own, so the next run's
// writes - to an empty table or to one it observed into - never reach it.
func TestEvaluatorBeginAfterFinishLeavesTable(t *testing.T) {
	var ev Evaluator
	ev.Begin(4, 2)
	ev.Finish()
	kept := ev.Replicas()

	ev.Begin(4, 2)
	if err := ev.Observe([]graph.Edge{{Src: 0, Dst: 3}}, []int32{1}); err != nil {
		t.Fatal(err)
	}
	ev.Finish()
	if ev.Replicas() == kept {
		t.Fatal("the second run wrote the handed-over table")
	}
	for i, w := range kept.bits {
		if w != 0 {
			t.Fatalf("handed-over empty table has word %d = %#x", i, w)
		}
	}
}
