package edgecut

import (
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// hashEC places each vertex by a hash of its id, the edge-cut analogue of
// random edge placement: the structure-blind reference the other
// partitioners must clearly beat.
type hashEC struct{}

func (hashEC) Name() string { return "HashEC" }

func (hashEC) Partition(g *graph.Graph, k int) ([]int32, error) {
	assign := make([]int32, g.NumVertices)
	for v := range assign {
		x := uint64(v) + 0x9e3779b97f4a7c15
		x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
		x = (x ^ (x >> 27)) * 0x94d049bb133111eb
		assign[v] = int32((x ^ (x >> 31)) % uint64(k))
	}
	return assign, nil
}

func partitioners() []Partitioner {
	return []Partitioner{
		hashEC{},
		&LDG{},
		&FENNEL{},
		&Multilevel{Seed: 1},
	}
}

func blockGraph(sites, pages int, seed uint64) *graph.Graph {
	return gen.Web(gen.WebConfig{
		N: sites * pages, OutDegree: 6, IntraSite: 0.95,
		SiteMean: pages, Seed: seed,
	})
}

func TestAllAssignEveryVertex(t *testing.T) {
	g := blockGraph(40, 50, 1)
	for _, p := range partitioners() {
		for _, k := range []int{1, 2, 8, 17} {
			assign, err := p.Partition(g, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", p.Name(), k, err)
			}
			q, err := Evaluate(g, assign, k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", p.Name(), k, err)
			}
			var total int64
			for _, s := range q.VertexSizes {
				total += s
			}
			if total != int64(g.NumVertices) {
				t.Fatalf("%s k=%d: %d vertices placed, want %d", p.Name(), k, total, g.NumVertices)
			}
		}
	}
}

func TestEvaluateHandExample(t *testing.T) {
	g := graph.New(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 0, Dst: 0}})
	assign := []int32{0, 0, 1, 1}
	q, err := Evaluate(g, assign, 2)
	if err != nil {
		t.Fatal(err)
	}
	if q.CutEdges != 1 {
		t.Fatalf("CutEdges = %d, want 1 (only 1->2 crosses)", q.CutEdges)
	}
	if q.VertexBalance != 1.0 {
		t.Fatalf("VertexBalance = %v, want 1.0", q.VertexBalance)
	}
}

func TestEvaluateRejectsBadInput(t *testing.T) {
	g := graph.New(2, []graph.Edge{{Src: 0, Dst: 1}})
	if _, err := Evaluate(g, []int32{0}, 2); err == nil {
		t.Fatal("short assignment accepted")
	}
	if _, err := Evaluate(g, []int32{0, 9}, 2); err == nil {
		t.Fatal("invalid partition accepted")
	}
}

// TestQualityOrdering: on a clusterable graph, every structure-aware
// algorithm must cut far less than hashing, and the offline multilevel
// partitioner must be at least as good as the streaming ones.
func TestQualityOrdering(t *testing.T) {
	g := blockGraph(60, 40, 2)
	k := 8
	cut := map[string]float64{}
	for _, p := range partitioners() {
		assign, err := p.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Evaluate(g, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		cut[p.Name()] = q.CutFraction
	}
	hash := cut["HashEC"]
	if hash < 0.5 {
		t.Fatalf("hash cut %.3f implausibly low at k=8", hash)
	}
	for _, name := range []string{"LDG", "FENNEL", "Multilevel"} {
		if cut[name] > hash*0.7 {
			t.Fatalf("%s cut %.3f not clearly below hash %.3f", name, cut[name], hash)
		}
	}
	if cut["Multilevel"] > cut["LDG"]*1.2 {
		t.Fatalf("offline multilevel (%.3f) should not lose clearly to streaming LDG (%.3f)",
			cut["Multilevel"], cut["LDG"])
	}
}

func TestBalanceBounds(t *testing.T) {
	g := blockGraph(40, 50, 3)
	k := 8
	for _, p := range []Partitioner{&LDG{}, &FENNEL{}, &Multilevel{Seed: 1}} {
		assign, err := p.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Evaluate(g, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		if q.VertexBalance > 1.3 {
			t.Fatalf("%s vertex balance %.3f too loose", p.Name(), q.VertexBalance)
		}
	}
}

// TestEdgeCutPoorOnPowerLaw backs the paper's Section II-C argument: on a
// heavy-tailed graph, even good edge-cut partitioners cut a large share of
// edges (because hub edges cross wherever the hub lands), while vertex-cut
// handles hubs by replication. We check the premise: the cut fraction on a
// skewed low-locality graph stays high for every edge-cut algorithm.
func TestEdgeCutPoorOnPowerLaw(t *testing.T) {
	g := gen.BarabasiAlbert(6000, 8, 4)
	k := 16
	for _, p := range []Partitioner{&LDG{}, &FENNEL{}, &Multilevel{Seed: 1}} {
		assign, err := p.Partition(g, k)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Evaluate(g, assign, k)
		if err != nil {
			t.Fatal(err)
		}
		if q.CutFraction < 0.3 {
			t.Fatalf("%s cut %.3f surprisingly low on a BA graph - the II-C premise would not hold", p.Name(), q.CutFraction)
		}
	}
}

func TestMultilevelBeatsHashOnCliqueChain(t *testing.T) {
	// k cliques, one bridge each: the ideal cut is k-1 edges.
	var edges []graph.Edge
	const cliques, size = 8, 12
	for c := 0; c < cliques; c++ {
		base := c * size
		for i := 0; i < size; i++ {
			for j := i + 1; j < size; j++ {
				edges = append(edges, graph.Edge{Src: graph.VertexID(base + i), Dst: graph.VertexID(base + j)})
			}
		}
		if c > 0 {
			edges = append(edges, graph.Edge{Src: graph.VertexID(base - 1), Dst: graph.VertexID(base)})
		}
	}
	g := graph.New(cliques*size, edges)
	ml := &Multilevel{Seed: 2}
	assign, err := ml.Partition(g, cliques)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Evaluate(g, assign, cliques)
	if err != nil {
		t.Fatal(err)
	}
	// Perfect answer cuts 7 edges; allow some slack but demand near-ideal.
	if q.CutEdges > 3*(cliques-1) {
		t.Fatalf("multilevel cut %d edges on the clique chain, ideal is %d", q.CutEdges, cliques-1)
	}
}

func TestMultilevelDeterministic(t *testing.T) {
	g := blockGraph(30, 30, 5)
	a, err := (&Multilevel{Seed: 7}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	b, err := (&Multilevel{Seed: 7}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for v := range a {
		if a[v] != b[v] {
			t.Fatalf("nondeterministic at vertex %d", v)
		}
	}
}

func TestQuickValidAssignments(t *testing.T) {
	check := func(seed uint64, kRaw uint8) bool {
		k := int(kRaw)%6 + 1
		g := gen.Web(gen.WebConfig{N: 300, OutDegree: 4, Seed: seed})
		for _, p := range partitioners() {
			assign, err := p.Partition(g, k)
			if err != nil {
				return false
			}
			if _, err := Evaluate(g, assign, k); err != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

func TestK1AndEmpty(t *testing.T) {
	g := blockGraph(10, 10, 6)
	for _, p := range partitioners() {
		assign, err := p.Partition(g, 1)
		if err != nil {
			t.Fatal(err)
		}
		q, err := Evaluate(g, assign, 1)
		if err != nil {
			t.Fatal(err)
		}
		if q.CutEdges != 0 {
			t.Fatalf("%s: cut edges at k=1", p.Name())
		}
	}
	empty := graph.New(0, nil)
	if assign, err := (&Multilevel{}).Partition(empty, 4); err != nil || len(assign) != 0 {
		t.Fatalf("empty graph mishandled: %v %v", assign, err)
	}
}
