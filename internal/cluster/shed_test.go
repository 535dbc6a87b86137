package cluster

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/stream"
)

func TestShouldShedWindow(t *testing.T) {
	const vmax = 400
	cases := []struct {
		deg  uint32
		want bool
	}{
		{1, false},    // leaf: shedding tears it from its neighbourhood
		{99, false},   // below the hub threshold vmax/4
		{100, true},   // exactly vmax/4
		{200, true},   // mid-window hub
		{300, true},   // exactly 3*vmax/4
		{301, false},  // star no longer fits a fresh cluster
		{5000, false}, // super-hub saturates any cluster
	}
	for _, c := range cases {
		if got := shouldShed(c.deg, vmax); got != c.want {
			t.Errorf("shouldShed(%d, %d) = %v, want %v", c.deg, vmax, got, c.want)
		}
	}
}

// TestShedScenario reconstructs Figure 2: a hub v inside a cluster that
// fills up; when fresh neighbours keep arriving, v must be shed exactly
// once, marked divided, and its subsequent star must join v's new cluster.
func TestShedScenario(t *testing.T) {
	// Build a stream: hub 0 first bonds with vertices 1..9 (filling the
	// cluster), then fresh vertices 10..14 each link to the hub.
	var edges []graph.Edge
	for i := 1; i <= 9; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: 0})
	}
	for i := 10; i <= 14; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: 0})
	}
	// Vmax chosen so the cluster saturates after the first phase and the
	// hub's degree (9..14) sits inside the shed window [Vmax/4, 3Vmax/4].
	res, err := Run(stream.Of(edges).Source(15), Config{Vmax: 18})
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits == 0 {
		t.Fatal("hub never shed")
	}
	if res.SplitFrom[0] == None {
		t.Fatal("hub not divided: its mirror cluster is not recorded")
	}
	// The hub's post-shed star (late vertices) must sit with the hub.
	hub := res.Assign[0]
	with := 0
	for i := 10; i <= 14; i++ {
		if res.Assign[i] == hub {
			with++
		}
	}
	if with < 3 {
		t.Fatalf("only %d of 5 post-shed star vertices joined the hub", with)
	}
}

// TestNoShedForEstablishedEdges: an edge between two established vertices
// must not shed anyone even when a cluster is full (Holl-style rejection).
func TestNoShedForEstablishedEdges(t *testing.T) {
	var edges []graph.Edge
	// Two dense groups that each saturate a small Vmax.
	for i := 1; i <= 6; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: 0})
		edges = append(edges, graph.Edge{Src: graph.VertexID(10 + i), Dst: 10})
	}
	pre, err := Run(stream.Of(edges).Source(20), Config{Vmax: 10})
	if err != nil {
		t.Fatal(err)
	}
	preSplits := pre.Splits
	// Repeat the stream plus established<->established cross edges.
	cross := append(append([]graph.Edge{}, edges...),
		graph.Edge{Src: 0, Dst: 10}, graph.Edge{Src: 10, Dst: 0})
	post, err := Run(stream.Of(cross).Source(20), Config{Vmax: 10})
	if err != nil {
		t.Fatal(err)
	}
	// The cross edges link two non-newcomers (degrees 6+), so they must not
	// trigger additional sheds beyond what the base stream causes.
	if post.Splits > preSplits {
		t.Fatalf("established-established edges shed vertices: %d -> %d splits", preSplits, post.Splits)
	}
}

func TestMigrationCapBlocksEstablishedMoves(t *testing.T) {
	// Vertex 1 commits to cluster of 0 via two edges, then meets the large
	// group around 10; with the default cap it must stay with 0.
	var edges []graph.Edge
	edges = append(edges, graph.Edge{Src: 1, Dst: 0}, graph.Edge{Src: 0, Dst: 1})
	for i := 11; i <= 16; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: 10})
	}
	edges = append(edges, graph.Edge{Src: 1, Dst: 10})
	res, err := Run(stream.Of(edges).Source(20), Config{Vmax: 1000})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[1] != res.Assign[0] {
		t.Fatalf("committed vertex was stolen: assign[1]=%d assign[0]=%d", res.Assign[1], res.Assign[0])
	}
	// With the cap removed (literal Algorithm 2) the steal happens.
	res, err = Run(stream.Of(edges).Source(20), Config{Vmax: 1000, MigrateMaxDegree: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Assign[1] != res.Assign[10] {
		t.Fatalf("uncapped migration should steal vertex 1 into the big cluster")
	}
}

func TestSelfLoopHandling(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 0}, {Src: 0, Dst: 1}}
	res, err := Run(stream.Of(edges).Source(2), Config{Vmax: 100})
	if err != nil {
		t.Fatal(err)
	}
	if res.Degree[0] != 3 {
		t.Fatalf("self-loop degree %d, want 3", res.Degree[0])
	}
	var volSum int64
	for _, v := range res.Volume {
		volSum += v
	}
	if volSum != 4 {
		t.Fatalf("volume sum %d, want 4", volSum)
	}
}
