package metrics

import (
	"testing"

	"repro/internal/graph"
)

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
}
