package cluster

import (
	"runtime"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

func webEdges(n int, seed uint64) ([]graph.Edge, int) {
	g := gen.Web(gen.WebConfig{N: n, OutDegree: 6, CopyFactor: 0.6, Seed: seed})
	return stream.Edges(g, stream.BFS, 0), g.NumVertices
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := Run(stream.View{}.Source(0), Config{Vmax: 0}); err == nil {
		t.Fatal("Vmax=0 accepted")
	}
	if _, err := Run(stream.Of([]graph.Edge{{Src: 0, Dst: 9}}).Source(2), Config{Vmax: 10}); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestEveryEndpointClustered(t *testing.T) {
	edges, nv := webEdges(3000, 1)
	res, err := Run(stream.Of(edges).Source(nv), Config{Vmax: int64(len(edges) / 16)})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if res.Assign[e.Src] == None || res.Assign[e.Dst] == None {
			t.Fatalf("edge %v has unclustered endpoint", e)
		}
	}
}

// TestVolumeConservation checks the paper's bookkeeping invariant: every
// degree increment adds one unit of volume, and splits/migrations move
// volume without creating or destroying it, so sum(Volume) == sum(Degree)
// at all times.
func TestVolumeConservation(t *testing.T) {
	for _, split := range []bool{false, true} {
		edges, nv := webEdges(3000, 2)
		res, err := Run(stream.Of(edges).Source(nv), Config{Vmax: int64(len(edges) / 32), DisableSplitting: !split})
		if err != nil {
			t.Fatal(err)
		}
		var volSum, degSum int64
		for _, v := range res.Volume {
			volSum += v
		}
		for _, d := range res.Degree {
			degSum += int64(d)
		}
		if volSum != degSum {
			t.Fatalf("split=%v: volume sum %d != degree sum %d", split, volSum, degSum)
		}
	}
}

func TestDegreesMatchStream(t *testing.T) {
	edges, nv := webEdges(2000, 3)
	res, err := Run(stream.Of(edges).Source(nv), Config{Vmax: int64(len(edges) / 8)})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]uint32, nv)
	for _, e := range edges {
		want[e.Src]++
		want[e.Dst]++
	}
	for v := range want {
		if res.Degree[v] != want[v] {
			t.Fatalf("deg[%d] = %d, want %d", v, res.Degree[v], want[v])
		}
	}
}

func TestSplittingOccursOnPowerLawGraphs(t *testing.T) {
	edges, nv := webEdges(5000, 4)
	res, err := Run(stream.Of(edges).Source(nv), Config{Vmax: int64(len(edges) / 64)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits == 0 {
		t.Fatal("no splits on a skewed graph with small Vmax")
	}
	divided := 0
	for _, c := range res.SplitFrom {
		if c != None {
			divided++
		}
	}
	if divided == 0 {
		t.Fatal("splits recorded but no divided vertices marked")
	}
}

func TestNoSplitsWhenDisabled(t *testing.T) {
	edges, nv := webEdges(5000, 4)
	res, err := Run(stream.Of(edges).Source(nv), Config{Vmax: int64(len(edges) / 64), DisableSplitting: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Splits != 0 {
		t.Fatalf("splitting disabled but %d splits recorded", res.Splits)
	}
	for v, c := range res.SplitFrom {
		if c != None {
			t.Fatalf("vertex %d marked divided with splitting disabled", v)
		}
	}
}

func TestMigrationHappens(t *testing.T) {
	edges, nv := webEdges(2000, 5)
	res, err := Run(stream.Of(edges).Source(nv), Config{Vmax: int64(len(edges) / 8)})
	if err != nil {
		t.Fatal(err)
	}
	if res.Migrations == 0 {
		t.Fatal("no migrations on a clustered web graph")
	}
}

func TestClusteringGroupsNeighbours(t *testing.T) {
	// Two disjoint triangles with generous Vmax must land in exactly two
	// clusters after compaction.
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0},
		{Src: 3, Dst: 4}, {Src: 4, Dst: 5}, {Src: 5, Dst: 3},
	}
	res, err := Run(stream.Of(edges).Source(6), Config{Vmax: 100})
	if err != nil {
		t.Fatal(err)
	}
	res.Compact()
	if res.NumClusters != 2 {
		t.Fatalf("two triangles yielded %d clusters, want 2", res.NumClusters)
	}
	if res.Assign[0] != res.Assign[1] || res.Assign[1] != res.Assign[2] {
		t.Fatalf("triangle 0-1-2 split: %v", res.Assign[:3])
	}
	if res.Assign[3] != res.Assign[4] || res.Assign[4] != res.Assign[5] {
		t.Fatalf("triangle 3-4-5 split: %v", res.Assign[3:])
	}
	if res.Assign[0] == res.Assign[3] {
		t.Fatal("disjoint triangles merged")
	}
}

func TestCompact(t *testing.T) {
	edges, nv := webEdges(3000, 6)
	res, err := Run(stream.Of(edges).Source(nv), Config{Vmax: int64(len(edges) / 32)})
	if err != nil {
		t.Fatal(err)
	}
	members := res.Compact()
	if res.NumClusters != len(members) {
		t.Fatalf("NumClusters %d != len(members) %d", res.NumClusters, len(members))
	}
	// Dense ids, every cluster non-empty, volumes = sum of member degrees.
	var total int32
	for c, m := range members {
		if m <= 0 {
			t.Fatalf("cluster %d empty after compaction", c)
		}
		total += m
	}
	seen := 0
	volWant := make([]int64, res.NumClusters)
	for v, c := range res.Assign {
		if c == None {
			continue
		}
		seen++
		if int(c) >= res.NumClusters {
			t.Fatalf("assign[%d]=%d exceeds NumClusters %d", v, c, res.NumClusters)
		}
		volWant[c] += int64(res.Degree[v])
	}
	if int(total) != seen {
		t.Fatalf("membership %d != clustered vertices %d", total, seen)
	}
	for c := range volWant {
		if res.Volume[c] != volWant[c] {
			t.Fatalf("compacted volume[%d] = %d, want %d", c, res.Volume[c], volWant[c])
		}
	}
}

// TestSplittingReducesReplicaPotential verifies the motivation of Theorem 1
// on a real stream: the number of divided-vertex mirrors CLUGP creates is
// bounded by what Holl's framework would spread across clusters. We check
// the weaker, directly-observable form: with splitting, the cluster count
// stays near the Holl count while hot clusters stop saturating.
func TestSplittingBoundsClusterVolume(t *testing.T) {
	edges, nv := webEdges(5000, 7)
	vmax := int64(len(edges) / 64)
	res, err := Run(stream.Of(edges).Source(nv), Config{Vmax: vmax})
	if err != nil {
		t.Fatal(err)
	}
	res.Compact()
	// After splitting, no cluster should wildly exceed Vmax: a member's
	// whole degree arrives at most once past the threshold.
	over := 0
	for _, v := range res.Volume {
		if v > 3*vmax {
			over++
		}
	}
	if frac := float64(over) / float64(res.NumClusters); frac > 0.02 {
		t.Fatalf("%.1f%% of clusters exceed 3*Vmax", frac*100)
	}
}

func TestQuickClusteringInvariants(t *testing.T) {
	check := func(seed uint64, split bool) bool {
		g := gen.Web(gen.WebConfig{N: 400, OutDegree: 4, CopyFactor: 0.5, Seed: seed})
		edges := stream.Edges(g, stream.BFS, 0)
		res, err := Run(stream.Of(edges).Source(g.NumVertices), Config{Vmax: 40, DisableSplitting: !split})
		if err != nil {
			return false
		}
		var volSum, degSum int64
		for _, v := range res.Volume {
			volSum += v
		}
		for _, d := range res.Degree {
			degSum += int64(d)
		}
		if volSum != degSum {
			return false
		}
		for _, e := range edges {
			if res.Assign[e.Src] == None || res.Assign[e.Dst] == None {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestRunAllocatesTablesOnce: pass 1 allocates its tables once - assign,
// degree and splitFrom at 4 bytes a vertex, volume at 8 bytes a cluster
// for one cluster per vertex plus the split headroom of 8|E|/Vmax - and
// at most 64 KiB besides, so the volume table never grows by append; and
// Compact allocates only its compacted member counts and volumes, 12
// bytes a cluster, and the same slack. Vmax is CLUGP's at k=256.
func TestRunAllocatesTablesOnce(t *testing.T) {
	const slack = 64 << 10
	edges, nv := webEdges(200000, 7)
	vmax := int64(0.2 * float64(len(edges)) / 256)
	for _, split := range []bool{true, false} {
		src := stream.Of(edges).Source(nv)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Run(src, Config{Vmax: vmax, DisableSplitting: !split})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		headroom := int64(0)
		if split {
			headroom = 8 * int64(len(edges)) / vmax
		}
		tables := 12*uint64(nv) + 8*uint64(int64(nv)+headroom)
		grew := after.TotalAlloc - before.TotalAlloc
		t.Logf("split=%v: pass 1 allocated %.2f MB for %.2f MB of tables (%d clusters, %d splits)",
			split, float64(grew)/(1<<20), float64(tables)/(1<<20), res.NumClusters, res.Splits)
		if grew > tables+slack {
			t.Errorf("split=%v: pass 1 allocated %d bytes for %d bytes of tables", split, grew, tables)
		}
		if res.Bytes() != int64(tables) {
			t.Errorf("split=%v: Bytes reports %d bytes for %d bytes of tables", split, res.Bytes(), tables)
		}
		runtime.ReadMemStats(&before)
		members := res.Compact()
		runtime.ReadMemStats(&after)
		if grew, want := after.TotalAlloc-before.TotalAlloc, 12*uint64(len(members)); grew > want+slack {
			t.Errorf("split=%v: Compact allocated %d bytes for %d clusters (%d bytes of tables)", split, grew, len(members), want)
		}
	}
}
