package metrics

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/stream"
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

// refObserve is Observe before the applier: one loop that checks and
// applies each edge in turn and stops at the first invalid partition,
// leaving the valid prefix applied. It writes ev's table, sizes and edge
// count directly and never queues, so it is the oracle for both modes.
func refObserve(ev *Evaluator, edges []graph.Edge, assign []int32) error {
	if len(edges) != len(assign) {
		return fmt.Errorf("metrics: observed %d edges with %d assignments", len(edges), len(assign))
	}
	rs, sizes, k := ev.table(), ev.sizes, ev.k
	for i, e := range edges {
		p := assign[i]
		if p < 0 || int(p) >= k {
			return fmt.Errorf("metrics: edge %d assigned to invalid partition %d (k=%d)", ev.edges+int64(i), p, k)
		}
		sizes[p]++
		rs.Add(e.Src, int(p))
		rs.Add(e.Dst, int(p))
	}
	ev.edges += int64(len(edges))
	return nil
}

// withProcs runs fn at GOMAXPROCS procs and restores the setting.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// randomRun returns n random edges over nv vertices with partitions in
// [0, k).
func randomRun(rng *rand.Rand, n, nv, k int) ([]graph.Edge, []int32) {
	edges := make([]graph.Edge, n)
	assign := make([]int32, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(rng.IntN(nv)), Dst: graph.VertexID(rng.IntN(nv))}
		assign[i] = int32(rng.IntN(k))
	}
	return edges, assign
}

// sameState fails t unless got and want hold the same table words, sizes
// and edge count.
func sameState(t *testing.T, name string, got, want *Evaluator) {
	t.Helper()
	if g, w := got.Replicas().bits, want.Replicas().bits; !slices.Equal(g, w) {
		t.Fatalf("%s: replica words differ from the oracle's", name)
	}
	if !slices.Equal(got.sizes, want.sizes) || got.edges != want.edges {
		t.Fatalf("%s: sizes %v over %d edges, oracle %v over %d", name, got.sizes, got.edges, want.sizes, want.edges)
	}
}

// TestEvaluatorAsyncMatchesInline: at GOMAXPROCS 1 (inline) and 2 (the
// applier), runs of 0, 1, chunk-1, chunk, chunk+1 and 3·chunk+7 edges
// leave the same words, sizes and Quality as the oracle, for k across the
// word boundaries. A run with an invalid partition inside its third chunk
// fails with the oracle's text and edge index and leaves the oracle's
// table, and the run continues from there as the oracle's does.
func TestEvaluatorAsyncMatchesInline(t *testing.T) {
	const nv = 3000
	lengths := []int{0, 1, applyChunk - 1, applyChunk, applyChunk + 1, 3*applyChunk + 7}
	for _, procs := range []int{1, 2} {
		for _, k := range []int{1, 63, 64, 65, 256} {
			name := fmt.Sprintf("procs=%d/k=%d", procs, k)
			rng := rand.New(rand.NewPCG(uint64(k), uint64(procs)))
			var ev, ref Evaluator
			withProcs(procs, func() {
				ev.Begin(nv, k)
				ref.Begin(nv, k)
				if ev.AppliesAhead() != (procs >= 2) {
					t.Fatalf("%s: AppliesAhead %v", name, ev.AppliesAhead())
				}
				for _, n := range lengths {
					edges, assign := randomRun(rng, n, nv, k)
					if err := ev.Observe(edges, assign); err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if err := refObserve(&ref, edges, assign); err != nil {
						t.Fatal(err)
					}
					// The caller may reuse its buffers at once.
					clear(edges)
					clear(assign)
				}
				sameState(t, name, &ev, &ref)

				edges, assign := randomRun(rng, 3*applyChunk+7, nv, k)
				assign[2*applyChunk+5] = int32(k)
				err, refErr := ev.Observe(edges, assign), refObserve(&ref, edges, assign)
				if err == nil || refErr == nil || err.Error() != refErr.Error() {
					t.Fatalf("%s: invalid partition gave %v, oracle %v", name, err, refErr)
				}
				sameState(t, name+" after an error", &ev, &ref)
				edges, assign = randomRun(rng, applyChunk+3, nv, k)
				if err := ev.Observe(edges, assign); err != nil {
					t.Fatal(err)
				}
				if err := refObserve(&ref, edges, assign); err != nil {
					t.Fatal(err)
				}
				q, refQ := ev.Finish(), ref.Finish()
				if !reflect.DeepEqual(q, refQ) {
					t.Fatalf("%s: Quality %+v, oracle %+v", name, q, refQ)
				}
				sameState(t, name+" finished", &ev, &ref)
			})
		}
	}
}

// applierGoroutines counts the goroutines running an applier, read from
// every goroutine's stack, so goroutines that other code starts or ends
// meanwhile do not move it.
func applierGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("metrics.(*applier).run("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// TestEvaluatorAbandonedLeaksNoGoroutine: an Evaluator dropped mid-run,
// with chunks still queued and no Finish, leaves no applier goroutine once
// its ring drains.
func TestEvaluatorAbandonedLeaksNoGoroutine(t *testing.T) {
	withProcs(2, func() {
		rng := rand.New(rand.NewPCG(7, 7))
		for range 20 {
			ev := new(Evaluator)
			ev.Begin(100000, 256)
			if !ev.AppliesAhead() {
				t.Fatal("the run applies inline at GOMAXPROCS 2")
			}
			edges, assign := randomRun(rng, 10*applyChunk, 100000, 256)
			if err := ev.Observe(edges, assign); err != nil {
				t.Fatal(err)
			}
		}
	})
	n := applierGoroutines()
	for i := 0; i < 100 && n > 0; i++ {
		time.Sleep(5 * time.Millisecond)
		n = applierGoroutines()
	}
	if n != 0 {
		t.Fatalf("%d applier goroutines left after the runs were dropped", n)
	}
}

// TestEvaluatorObserveAfterFinishRefused: Observe after Finish, with no
// Begin between them, is an error that names the missing Begin, and the
// handed-over table and sizes stay as Finish left them. So is Observe on
// an Evaluator that never began a run.
func TestEvaluatorObserveAfterFinishRefused(t *testing.T) {
	for _, procs := range []int{1, 2} {
		withProcs(procs, func() {
			var ev Evaluator
			ev.Begin(4, 2)
			if err := ev.Observe([]graph.Edge{{Src: 0, Dst: 1}}, []int32{0}); err != nil {
				t.Fatal(err)
			}
			q := ev.Finish()
			kept := ev.Replicas()
			err := ev.Observe([]graph.Edge{{Src: 2, Dst: 3}}, []int32{1})
			if err == nil || !strings.Contains(err.Error(), "Begin") {
				t.Fatalf("procs=%d: Observe after Finish returned %v, want an error naming Begin", procs, err)
			}
			if c := kept.Count(3); c != 0 || !slices.Equal(q.Sizes, []int64{1, 0}) {
				t.Fatalf("procs=%d: the handed-over run was written: vertex 3 count %d, sizes %v", procs, c, q.Sizes)
			}
			var fresh Evaluator
			if err := fresh.Observe(nil, nil); err == nil {
				t.Fatalf("procs=%d: Observe without any Begin returned nil", procs)
			}
		})
	}
}

// TestEvaluateRejectsBadK: Evaluate refuses k < 1 with an error naming k
// instead of panicking on the size table (k < 0) or summarising an empty
// one (k = 0).
func TestEvaluateRejectsBadK(t *testing.T) {
	src := stream.Of([]graph.Edge{{Src: 0, Dst: 1}}).Source(2)
	for _, k := range []int{0, -1} {
		q, err := Evaluate(src, []int32{0}, k)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprint(k)) {
			t.Fatalf("k=%d: Evaluate returned %+v, %v; want an error naming k", k, q, err)
		}
	}
}
