package partition

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/stream"
	"repro/internal/xrand"
)

func evalQuality(edges []graph.Edge, assign []int32, nv, k int) (float64, error) {
	q, err := metrics.Evaluate(stream.Of(edges).Source(nv), assign, k)
	if err != nil {
		return 0, err
	}
	return q.ReplicationFactor, nil
}

func newTestRNG(seed uint64) *xrand.RNG { return xrand.New(seed) }

// Edge-case coverage shared across all algorithms: degenerate graphs,
// duplicate edges, self-loops, and k at the extremes.

func degenerateGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"single-edge":  graph.New(2, []graph.Edge{{Src: 0, Dst: 1}}),
		"self-loop":    graph.New(1, []graph.Edge{{Src: 0, Dst: 0}}),
		"duplicates":   graph.New(2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1}}),
		"star":         starGraph(50),
		"path":         pathGraph(50),
		"two-vertices": graph.New(2, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}),
	}
}

func starGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: 0})
	}
	return graph.New(n, edges)
}

func pathGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
	}
	return graph.New(n, edges)
}

func TestDegenerateGraphsAllAlgorithms(t *testing.T) {
	for gname, g := range degenerateGraphs() {
		for _, p := range allPartitioners() {
			for _, k := range []int{1, 2, 7} {
				res, err := Run(p, g, k, 1)
				if err != nil {
					t.Fatalf("%s on %s k=%d: %v", p.Name(), gname, k, err)
				}
				if len(res.Assign) != g.NumEdges() {
					t.Fatalf("%s on %s k=%d: wrong assignment length", p.Name(), gname, k)
				}
				if res.Quality.ReplicationFactor < 1 {
					t.Fatalf("%s on %s k=%d: RF %v < 1", p.Name(), gname, k, res.Quality.ReplicationFactor)
				}
			}
		}
	}
}

// TestKExceedsEdges: more partitions than edges still yields a valid
// (necessarily unbalanced) result.
func TestKExceedsEdges(t *testing.T) {
	g := pathGraph(5) // 4 edges
	for _, p := range allPartitioners() {
		res, err := Run(p, g, 16, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		var total int64
		for _, s := range res.Quality.Sizes {
			total += s
		}
		if total != 4 {
			t.Fatalf("%s: lost edges at k > |E|", p.Name())
		}
	}
}

// TestStarGraphHubCutting: on a star, a quality partitioner should cut the
// hub (replicating it) while keeping every leaf whole.
func TestStarGraphHubCutting(t *testing.T) {
	g := starGraph(200)
	for _, name := range []string{"DBH", "HDRF", "CLUGP"} {
		p, _ := New(name, 1)
		res, err := Run(p, g, 8, 1)
		if err != nil {
			t.Fatal(err)
		}
		// RF = (|P(hub)| + 199 leaves) / 200 <= (8 + 199)/200.
		if res.Quality.ReplicationFactor > 1.04 {
			t.Fatalf("%s: star RF %.3f, want ~1.035 (only the hub cut)", name, res.Quality.ReplicationFactor)
		}
	}
}

// TestERControlGraph: on a uniform random graph the clustering advantage
// should vanish - CLUGP must not be dramatically better than DBH - but all
// invariants still hold.
func TestERControlGraph(t *testing.T) {
	g := gen.ErdosRenyi(2000, 16000, 3)
	dbh, err := Run(&DBH{Seed: 1}, g, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	clugp, err := Run(&CLUGP{Seed: 1}, g, 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if clugp.Quality.ReplicationFactor < dbh.Quality.ReplicationFactor/3 {
		t.Fatalf("implausible CLUGP advantage on structureless graph: %.3f vs %.3f",
			clugp.Quality.ReplicationFactor, dbh.Quality.ReplicationFactor)
	}
}

// TestOrderRobustness: CLUGP follows the paper in preferring BFS streams,
// but its quality must not collapse under a shuffled stream (with the
// calibrated clustering the two orders measure within a few percent of
// each other; see EXPERIMENTS.md).
func TestOrderRobustness(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 6000, OutDegree: 8, IntraSite: 0.88, Seed: 12})
	p := &CLUGP{Seed: 1}
	bfsEdges := g.Edges // generation order is crawl-like already
	bfs := partitionAll(t, p, stream.Of(bfsEdges).Source(g.NumVertices), 16)
	qBFS, err := evalQuality(bfsEdges, bfs, g.NumVertices, 16)
	if err != nil {
		t.Fatal(err)
	}
	shuffled := append([]graph.Edge(nil), g.Edges...)
	rng := newTestRNG(9)
	for i := len(shuffled) - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	}
	rnd := partitionAll(t, p, stream.Of(shuffled).Source(g.NumVertices), 16)
	qRnd, err := evalQuality(shuffled, rnd, g.NumVertices, 16)
	if err != nil {
		t.Fatal(err)
	}
	if qBFS > 1.3*qRnd || qRnd > 1.3*qBFS {
		t.Fatalf("order changed CLUGP quality by >30%%: bfs %.3f vs random %.3f", qBFS, qRnd)
	}
}

// TestCLUGPThreadCountInvariantQuality: the batch-parallel game must give
// identical results regardless of worker count (batches are independent).
func TestCLUGPThreadCountInvariantQuality(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 5000, OutDegree: 8, IntraSite: 0.85, Seed: 13})
	var first []int32
	for _, threads := range []int{1, 4, 16} {
		p := &CLUGP{Seed: 1, Threads: threads, BatchSize: 256}
		res, err := Run(p, g, 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res.Assign
			continue
		}
		for i := range first {
			if res.Assign[i] != first[i] {
				t.Fatalf("threads=%d: assignment differs at edge %d", threads, i)
			}
		}
	}
}

// TestRelWeightExtremes: both cost-weight extremes must still produce valid
// partitions, and the balanced default should not be worse than both
// extremes at once (the U-shape of Figure 11b).
func TestRelWeightExtremes(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 6000, OutDegree: 8, IntraSite: 0.88, Seed: 14})
	rf := map[float64]float64{}
	for _, w := range []float64{0.1, 0.5, 0.9} {
		p := &CLUGP{Seed: 1, RelWeight: w}
		res, err := Run(p, g, 32, 1)
		if err != nil {
			t.Fatal(err)
		}
		rf[w] = res.Quality.ReplicationFactor
	}
	if rf[0.5] > rf[0.1] && rf[0.5] > rf[0.9] {
		t.Fatalf("default weight is the worst of the sweep: %v", rf)
	}
}
