package partition

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/stream"
)

func TestGridReplicaBound(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 5000, OutDegree: 8, IntraSite: 0.8, Seed: 42})
	k := 16 // 4x4 grid
	res, err := Run(&Grid{Seed: 1}, g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Structural guarantee: |P(v)| <= 2*sqrt(k)-1 = 7.
	rs := metrics.NewReplicaSets(g.NumVertices, k)
	edges, err := stream.Collect(res.Stream)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range edges {
		rs.Add(e.Src, int(res.Assign[i]))
		rs.Add(e.Dst, int(res.Assign[i]))
	}
	for v := 0; v < g.NumVertices; v++ {
		if c := rs.Count(graph.VertexID(v)); c > 7 {
			t.Fatalf("vertex %d on %d partitions, grid bound is 7", v, c)
		}
	}
	// And the bound must bite: the max-degree vertex under plain hashing
	// would exceed it.
	hash, err := Run(&Hashing{Seed: 1}, g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	if hash.Quality.ReplicationFactor <= res.Quality.ReplicationFactor {
		t.Fatalf("grid RF %.3f not below hashing %.3f", res.Quality.ReplicationFactor, hash.Quality.ReplicationFactor)
	}
}

func TestGridNonSquareK(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 500, OutDegree: 4, Seed: 43})
	res, err := Run(&Grid{Seed: 1}, g, 10, 1) // uses a 3x3 grid
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range res.Assign {
		if a < 0 || a >= 9 {
			t.Fatalf("grid used partition %d outside its 3x3 square", a)
		}
	}
}
