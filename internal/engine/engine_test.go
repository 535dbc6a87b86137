package engine

import (
	"math"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/stream"
)

func testGraph(seed uint64) *graph.Graph {
	return gen.Web(gen.WebConfig{N: 3000, OutDegree: 6, IntraSite: 0.8, SiteMean: 50, CopyFactor: 0.5, Seed: seed})
}

func place(t testing.TB, g *graph.Graph, p partition.Partitioner, k int) *Placement {
	t.Helper()
	res, err := partition.Run(p, g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlacement(res)
	if err != nil {
		t.Fatal(err)
	}
	return pl
}

func TestPlacementInvariants(t *testing.T) {
	g := testGraph(1)
	for _, pr := range []partition.Partitioner{&partition.Hashing{Seed: 1}, &partition.CLUGP{Seed: 1}} {
		pl := place(t, g, pr, 8)
		if pl.K != 8 || pl.NumVertices != g.NumVertices {
			t.Fatalf("%s: placement shape %d/%d", pr.Name(), pl.K, pl.NumVertices)
		}
		// Every vertex has exactly one master across all nodes.
		masters := make([]int, g.NumVertices)
		totalEdges := 0
		for i := range pl.Nodes {
			n := &pl.Nodes[i]
			totalEdges += len(n.Edges)
			if len(n.Global) != len(n.IsMaster) {
				t.Fatalf("node %d: table length mismatch", i)
			}
			for l, v := range n.Global {
				if n.IsMaster[l] {
					masters[v]++
					if pl.Master[v] != int32(i) {
						t.Fatalf("vertex %d: master table says %d, slot on %d", v, pl.Master[v], i)
					}
				}
			}
		}
		if totalEdges != g.NumEdges() {
			t.Fatalf("%s: placement holds %d edges, want %d", pr.Name(), totalEdges, g.NumEdges())
		}
		for v, m := range masters {
			if m != 1 {
				t.Fatalf("%s: vertex %d has %d masters", pr.Name(), v, m)
			}
		}
		// Sync pairs = total local slots - one master slot per vertex.
		slots := 0
		for i := range pl.Nodes {
			slots += len(pl.Nodes[i].Global)
		}
		if len(pl.Sync) != slots-g.NumVertices {
			t.Fatalf("%s: %d sync pairs, want %d", pr.Name(), len(pl.Sync), slots-g.NumVertices)
		}
		if pl.ReplicationFactor() < 1 {
			t.Fatalf("%s: RF %v < 1", pr.Name(), pl.ReplicationFactor())
		}
	}
}

func TestMasterHoldsMostEdges(t *testing.T) {
	// Hand-built: vertex 0 has 3 edges on partition 1, 1 edge on partition 0.
	res := &partition.Result{
		Algorithm:   "hand",
		K:           2,
		NumVertices: 5,
		Stream: stream.Of([]graph.Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 0, Dst: 4},
		}).Source(5),
		Assign: []int32{0, 1, 1, 1},
	}
	pl, err := NewPlacement(res)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Master[0] != 1 {
		t.Fatalf("master of hub = %d, want 1 (holds 3 of 4 edges)", pl.Master[0])
	}
}

func TestPageRankMatchesReferenceAcrossPartitioners(t *testing.T) {
	g := testGraph(2)
	want := ReferencePageRank(g, 0.85, 10)
	for _, pr := range []partition.Partitioner{
		&partition.Hashing{Seed: 3},
		&partition.DBH{Seed: 3},
		&partition.CLUGP{Seed: 3},
	} {
		for _, k := range []int{1, 4, 17} {
			pl := place(t, g, pr, k)
			got, stats, err := PageRank(pl, PageRankConfig{Damping: 0.85, Iterations: 10})
			if err != nil {
				t.Fatalf("%s k=%d: %v", pr.Name(), k, err)
			}
			for v := range want {
				if math.Abs(got[v]-want[v]) > 1e-9 {
					t.Fatalf("%s k=%d: rank[%d] = %v, want %v", pr.Name(), k, v, got[v], want[v])
				}
			}
			if stats.Supersteps != 10 {
				t.Fatalf("%s k=%d: %d supersteps", pr.Name(), k, stats.Supersteps)
			}
		}
	}
}

func TestPageRankMessageAccounting(t *testing.T) {
	g := testGraph(3)
	pl := place(t, g, &partition.Hashing{Seed: 1}, 8)
	_, stats, err := PageRank(pl, PageRankConfig{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	// Per superstep: 2 messages per sync pair + k for the dangling reduce.
	wantPerStep := int64(2*len(pl.Sync) + pl.K)
	if stats.Messages != 5*wantPerStep {
		t.Fatalf("messages = %d, want %d", stats.Messages, 5*wantPerStep)
	}
	cm := DefaultCostModel()
	if stats.CommBytes != stats.Messages*(cm.MsgBytes+cm.MsgOverheadBytes) {
		t.Fatalf("bytes %d inconsistent with messages %d", stats.CommBytes, stats.Messages)
	}
	if stats.SimTime <= 0 || stats.SimTime != stats.ComputeTime+stats.CommTime {
		t.Fatalf("SimTime %v != compute %v + comm %v", stats.SimTime, stats.ComputeTime, stats.CommTime)
	}
}

func TestBetterPartitioningFewerMessages(t *testing.T) {
	// The whole point of CLUGP: lower RF means fewer messages on the same
	// workload.
	g := gen.Web(gen.WebConfig{N: 8000, OutDegree: 8, IntraSite: 0.85, SiteMean: 100, CopyFactor: 0.5, Seed: 4})
	hash := place(t, g, &partition.Hashing{Seed: 1}, 32)
	clugp := place(t, g, &partition.CLUGP{Seed: 1}, 32)
	_, sh, err := PageRank(hash, PageRankConfig{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, sc, err := PageRank(clugp, PageRankConfig{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	if sc.Messages >= sh.Messages {
		t.Fatalf("CLUGP messages %d >= Hashing %d", sc.Messages, sh.Messages)
	}
}

func TestRTTIncreasesSimTime(t *testing.T) {
	g := testGraph(5)
	pl := place(t, g, &partition.DBH{Seed: 1}, 8)
	_, fast, err := PageRank(pl, PageRankConfig{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg := PageRankConfig{Iterations: 5}
	cfg.Cost.RTT = 50e6 // 50ms in ns units of time.Duration
	_, slow, err := PageRank(pl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.SimTime <= fast.SimTime {
		t.Fatalf("RTT did not slow the run: %v vs %v", slow.SimTime, fast.SimTime)
	}
}

// TestReferenceComponents: every vertex is labelled with the smallest id in
// its weakly connected component, isolated and self-looped vertices with
// their own.
func TestReferenceComponents(t *testing.T) {
	g := graph.New(6, []graph.Edge{{Src: 1, Dst: 0}, {Src: 2, Dst: 3}, {Src: 4, Dst: 4}})
	want := []uint32{0, 0, 2, 2, 4, 5}
	got := ReferenceComponents(g)
	for v := range want {
		if got[v] != want[v] {
			t.Fatalf("label[%d] = %d, want %d", v, got[v], want[v])
		}
	}
}

func TestLabelPropagationMatchesReference(t *testing.T) {
	g := testGraph(9)
	want := ReferenceLabelPropagation(g, 15)
	for _, k := range []int{1, 8} {
		pl := place(t, g, &partition.CLUGP{Seed: 3}, k)
		got, stats := LabelPropagation(pl, 15, CostModel{})
		for v := range want {
			if got[v] != want[v] {
				t.Fatalf("k=%d: label[%d] = %d, want %d", k, v, got[v], want[v])
			}
		}
		if stats.Supersteps < 2 {
			t.Fatalf("implausible superstep count %d", stats.Supersteps)
		}
	}
}

func TestLabelPropagationFindsCommunities(t *testing.T) {
	// Two dense cliques joined by one edge: propagation should settle on
	// (at most) two labels, one per clique.
	var edges []graph.Edge
	for i := 0; i < 6; i++ {
		for j := i + 1; j < 6; j++ {
			edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(j)})
			edges = append(edges, graph.Edge{Src: graph.VertexID(i + 6), Dst: graph.VertexID(j + 6)})
		}
	}
	edges = append(edges, graph.Edge{Src: 0, Dst: 6})
	g := graph.New(12, edges)
	res, err := partition.Run(&partition.Hashing{Seed: 1}, g, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlacement(res)
	if err != nil {
		t.Fatal(err)
	}
	labels, _ := LabelPropagation(pl, 30, CostModel{})
	left := labels[1]
	for v := 1; v < 6; v++ {
		if labels[v] != left {
			t.Fatalf("left clique split: %v", labels[:6])
		}
	}
	right := labels[7]
	for v := 7; v < 12; v++ {
		if labels[v] != right {
			t.Fatalf("right clique split: %v", labels[6:])
		}
	}
}

func TestPageRankEmptyPlacement(t *testing.T) {
	res := &partition.Result{Algorithm: "hand", K: 2, NumVertices: 0, Assign: []int32{}}
	pl, err := NewPlacement(res)
	if err != nil {
		t.Fatal(err)
	}
	ranks, _, err := PageRank(pl, PageRankConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if len(ranks) != 0 {
		t.Fatal("ranks from empty graph")
	}
}

func TestCostModelDefaults(t *testing.T) {
	cm := CostModel{}.withDefaults()
	d := DefaultCostModel()
	if cm.ComputePerEdge != d.ComputePerEdge || cm.MsgBytes != d.MsgBytes || cm.BandwidthBytesPerSec != d.BandwidthBytesPerSec {
		t.Fatalf("defaults not applied: %+v", cm)
	}
}

func TestPageRankRejectsBadDamping(t *testing.T) {
	g := testGraph(8)
	for _, k := range []int{2, 4} {
		pl := place(t, g, &partition.Hashing{Seed: 1}, k)
		for _, d := range []float64{1, 1.5, 2, -0.1} {
			if _, _, err := PageRank(pl, PageRankConfig{Damping: d}); err == nil {
				t.Fatalf("k=%d: damping %v accepted", k, d)
			}
		}
	}
}
