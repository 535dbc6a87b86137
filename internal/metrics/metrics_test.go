package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/graph"
	"repro/internal/stream"
)

func TestReplicaSetsBasics(t *testing.T) {
	rs := NewReplicaSets(10, 100)
	if rs.K() != 100 {
		t.Fatalf("K = %d", rs.K())
	}
	if rs.Has(3, 64) {
		t.Fatal("fresh table has membership")
	}
	rs.Add(3, 64)
	rs.Add(3, 64) // idempotent
	rs.Add(3, 0)
	if !rs.Has(3, 64) || !rs.Has(3, 0) {
		t.Fatal("Add not visible")
	}
	if rs.Has(3, 1) || rs.Has(4, 64) {
		t.Fatal("membership leaked")
	}
	if rs.Count(3) != 2 {
		t.Fatalf("Count = %d, want 2", rs.Count(3))
	}
	parts := rs.Partitions(3, nil)
	if len(parts) != 2 || parts[0] != 0 || parts[1] != 64 {
		t.Fatalf("Partitions = %v", parts)
	}
}

func TestReplicaSetsSetOps(t *testing.T) {
	rs := NewReplicaSets(4, 130)
	rs.Add(0, 1)
	rs.Add(0, 65)
	rs.Add(0, 129)
	rs.Add(1, 65)
	rs.Add(1, 2)
	inter := rs.Intersect(0, 1, nil)
	if len(inter) != 1 || inter[0] != 65 {
		t.Fatalf("Intersect = %v, want [65]", inter)
	}
	union := rs.Union(0, 1, nil)
	want := []int32{1, 2, 65, 129}
	if len(union) != len(want) {
		t.Fatalf("Union = %v, want %v", union, want)
	}
	for i := range want {
		if union[i] != want[i] {
			t.Fatalf("Union = %v, want %v", union, want)
		}
	}
}

func TestReplicaSetsQuick(t *testing.T) {
	check := func(adds []uint16, kRaw uint8) bool {
		k := int(kRaw)%200 + 1
		const nv = 32
		rs := NewReplicaSets(nv, k)
		ref := make(map[[2]int]bool)
		for _, a := range adds {
			v := int(a>>8) % nv
			p := int(a&0xff) % k
			rs.Add(graph.VertexID(v), p)
			ref[[2]int{v, p}] = true
		}
		for v := 0; v < nv; v++ {
			count := 0
			for p := 0; p < k; p++ {
				has := ref[[2]int{v, p}]
				if rs.Has(graph.VertexID(v), p) != has {
					return false
				}
				if has {
					count++
				}
			}
			if rs.Count(graph.VertexID(v)) != count {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEvaluateHandExample(t *testing.T) {
	// Figure 1(c-2)-style example: 5 edges, 2 partitions.
	// Partition 0: (0,1),(1,2); partition 1: (0,3),(3,4),(0,4).
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 3}, {Src: 3, Dst: 4}, {Src: 0, Dst: 4}}
	assign := []int32{0, 0, 1, 1, 1}
	q, err := Evaluate(stream.Of(edges).Source(5), assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	// P(0)={0,1} -> 2, P(1)={0}, P(2)={0}, P(3)={1}, P(4)={1}: sum 6 over 5.
	if math.Abs(q.ReplicationFactor-6.0/5.0) > 1e-12 {
		t.Fatalf("RF = %v, want 1.2", q.ReplicationFactor)
	}
	if q.Sizes[0] != 2 || q.Sizes[1] != 3 {
		t.Fatalf("Sizes = %v", q.Sizes)
	}
	// balance = k*max/|E| = 2*3/5.
	if math.Abs(q.RelativeBalance-1.2) > 1e-12 {
		t.Fatalf("balance = %v, want 1.2", q.RelativeBalance)
	}
	if q.Vertices != 5 || q.Replicas != 6 {
		t.Fatalf("vertices/replicas = %d/%d", q.Vertices, q.Replicas)
	}
}

func TestEvaluateExcludesUnseenVertices(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}}
	q, err := Evaluate(stream.Of(edges).Source(10), []int32{0}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.Vertices != 2 {
		t.Fatalf("Vertices = %d, want 2 (8 unseen excluded)", q.Vertices)
	}
	if q.ReplicationFactor != 1.0 {
		t.Fatalf("RF = %v, want 1.0", q.ReplicationFactor)
	}
}

func TestEvaluateErrors(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}}
	if _, err := Evaluate(stream.Of(edges).Source(2), []int32{}, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Evaluate(stream.Of(edges).Source(2), []int32{5}, 2); err == nil {
		t.Fatal("invalid partition accepted")
	}
	if _, err := Evaluate(stream.Of(edges).Source(2), []int32{-1}, 2); err == nil {
		t.Fatal("negative partition accepted")
	}
}

func TestEvaluateRFLowerBound(t *testing.T) {
	// RF is always >= 1 and <= k, whatever the assignment.
	check := func(raw []uint16, kRaw uint8) bool {
		k := int(kRaw)%8 + 1
		if len(raw) == 0 {
			return true
		}
		const nv = 16
		edges := make([]graph.Edge, len(raw))
		assign := make([]int32, len(raw))
		for i, r := range raw {
			edges[i] = graph.Edge{Src: graph.VertexID(int(r>>8) % nv), Dst: graph.VertexID(int(r) % nv)}
			assign[i] = int32(i % k)
		}
		q, err := Evaluate(stream.Of(edges).Source(nv), assign, k)
		if err != nil {
			return false
		}
		return q.ReplicationFactor >= 1 && q.ReplicationFactor <= float64(k)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestBytes(t *testing.T) {
	rs := NewReplicaSets(1000, 128)
	if rs.Bytes() != 1000*2*8 {
		t.Fatalf("Bytes = %d, want %d", rs.Bytes(), 1000*2*8)
	}
}

// TestReplicaSetsMultiWordLarge exercises k > 64 (multi-word bitsets) across
// every word boundary: Count, Partitions and Intersect must see bits in
// words 0, 1 and 2 alike.
func TestReplicaSetsMultiWordLarge(t *testing.T) {
	const k = 130 // 3 words: 64 + 64 + 2
	rs := NewReplicaSets(6, k)
	if rs.Words() != 3 {
		t.Fatalf("Words() = %d, want 3", rs.Words())
	}
	adds := []int{0, 5, 63, 64, 100, 127, 128, 129}
	for _, p := range adds {
		rs.Add(2, p)
	}
	if got := rs.Count(2); got != len(adds) {
		t.Fatalf("Count = %d, want %d", got, len(adds))
	}
	parts := rs.Partitions(2, nil)
	if len(parts) != len(adds) {
		t.Fatalf("Partitions = %v", parts)
	}
	for i, p := range adds {
		if parts[i] != int32(p) {
			t.Fatalf("Partitions[%d] = %d, want %d (ascending across words)", i, parts[i], p)
		}
		if !rs.Has(2, p) {
			t.Fatalf("Has(2, %d) = false", p)
		}
	}
	// Word accessor: partition 129 lives in word 2, bit 1.
	if w := rs.Word(2, 2); w&(1<<1) == 0 {
		t.Fatalf("Word(2,2) = %#x missing bit for partition 129", w)
	}
	// Intersect across words.
	for _, p := range []int{63, 64, 129} {
		rs.Add(3, p)
	}
	inter := rs.Intersect(2, 3, nil)
	want := []int32{63, 64, 129}
	if len(inter) != len(want) {
		t.Fatalf("Intersect = %v, want %v", inter, want)
	}
	for i := range want {
		if inter[i] != want[i] {
			t.Fatalf("Intersect = %v, want %v", inter, want)
		}
	}
	// Count stays per-vertex: vertex 4 untouched.
	if rs.Count(4) != 0 {
		t.Fatal("membership leaked across vertices")
	}
}

// TestReplicaSetsReset pins the scratch-reuse contract: Reset must clear
// every bit and support shrinking and growing the (n, k) shape, reusing
// storage when it can.
func TestReplicaSetsReset(t *testing.T) {
	rs := NewReplicaSets(8, 130)
	rs.Add(7, 129)
	rs.Add(0, 0)
	rs.Reset(8, 130)
	for v := 0; v < 8; v++ {
		if rs.Count(graph.VertexID(v)) != 0 {
			t.Fatalf("Reset left bits for vertex %d", v)
		}
	}
	// Shrink: smaller k must not see stale high-word bits.
	rs.Add(3, 100)
	rs.Reset(8, 32)
	if rs.K() != 32 || rs.Words() != 1 {
		t.Fatalf("shape after shrink: k=%d words=%d", rs.K(), rs.Words())
	}
	if rs.Count(3) != 0 {
		t.Fatal("stale bits visible after shrinking Reset")
	}
	// Grow beyond original capacity.
	rs.Reset(100, 256)
	rs.Add(99, 255)
	if !rs.Has(99, 255) || rs.Count(99) != 1 {
		t.Fatal("grow Reset broken")
	}
}

// TestEvaluatorReuseMatchesOneShot: an Evaluator reused across runs of
// different shapes must produce exactly what the one-shot Evaluate does.
func TestEvaluatorReuseMatchesOneShot(t *testing.T) {
	var ev Evaluator
	cases := []struct {
		edges  []graph.Edge
		assign []int32
		nv, k  int
	}{
		{[]graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 0, Dst: 3}, {Src: 3, Dst: 4}, {Src: 0, Dst: 4}}, []int32{0, 0, 1, 1, 1}, 5, 2},
		{[]graph.Edge{{Src: 0, Dst: 1}}, []int32{66}, 2, 130}, // multi-word k
		{[]graph.Edge{{Src: 2, Dst: 2}}, []int32{0}, 9, 3},    // shrink: no state of the larger run leaks
	}
	for i, tc := range cases {
		got, err := ev.Evaluate(stream.Of(tc.edges).Source(tc.nv), tc.assign, tc.k)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		want, err := Evaluate(stream.Of(tc.edges).Source(tc.nv), tc.assign, tc.k)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if got.ReplicationFactor != want.ReplicationFactor || got.Vertices != want.Vertices ||
			got.Replicas != want.Replicas || got.RelativeBalance != want.RelativeBalance {
			t.Fatalf("case %d: reused evaluator %+v != one-shot %+v", i, got, want)
		}
	}
}

// TestEvaluateViewMatchesMaterialized: evaluating through a permuted view
// must equal evaluating the materialized slice (assignment aligned to the
// view order).
func TestEvaluateViewMatchesMaterialized(t *testing.T) {
	base := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}
	perm := []int32{2, 0, 3, 1}
	v := stream.Permuted(base, perm)
	assign := []int32{1, 0, 1, 0}
	got, err := Evaluate(v.Source(4), assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := Evaluate(stream.Of(v.Materialize()).Source(4), assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if got.ReplicationFactor != want.ReplicationFactor || got.Sizes[0] != want.Sizes[0] {
		t.Fatalf("view eval %+v != materialized eval %+v", got, want)
	}
}
