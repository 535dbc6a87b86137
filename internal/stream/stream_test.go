package stream

import (
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
)

func lineGraph(n int) *graph.Graph {
	edges := make([]graph.Edge, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)})
	}
	return graph.New(n, edges)
}

// multiset collects edge counts so reorderings can be compared.
func multiset(edges []graph.Edge) map[graph.Edge]int {
	m := make(map[graph.Edge]int, len(edges))
	for _, e := range edges {
		m[e]++
	}
	return m
}

func sameMultiset(a, b []graph.Edge) bool {
	if len(a) != len(b) {
		return false
	}
	ma := multiset(a)
	for _, e := range b {
		ma[e]--
	}
	for _, c := range ma {
		if c != 0 {
			return false
		}
	}
	return true
}

func TestOrderString(t *testing.T) {
	for o, want := range map[Order]string{Natural: "natural", BFS: "bfs", Random: "random", Order(9): "order(9)"} {
		if got := o.String(); got != want {
			t.Fatalf("Order(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}

func TestNaturalAliases(t *testing.T) {
	g := lineGraph(5)
	edges := Edges(g, Natural, 0)
	if &edges[0] != &g.Edges[0] {
		t.Fatal("Natural should alias graph storage")
	}
}

func TestAllOrdersPreserveMultiset(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 500, OutDegree: 4, CopyFactor: 0.5, Seed: 3})
	for _, o := range []Order{Natural, BFS, Random} {
		edges := Edges(g, o, 42)
		if !sameMultiset(g.Edges, edges) {
			t.Fatalf("%v order changed the edge multiset", o)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 200, OutDegree: 4, CopyFactor: 0.5, Seed: 3})
	a := Edges(g, Random, 7)
	b := Edges(g, Random, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different shuffles")
		}
	}
	c := Edges(g, Random, 8)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical shuffles")
	}
}

func TestBFSOrderOnLine(t *testing.T) {
	// On a path graph starting at vertex 0, BFS must emit edges in path
	// order.
	g := lineGraph(10)
	edges := Edges(g, BFS, 0)
	for i, e := range edges {
		if int(e.Src) != i || int(e.Dst) != i+1 {
			t.Fatalf("BFS edge %d = %v, want (%d,%d)", i, e, i, i+1)
		}
	}
}

// TestBFSPrefixConnectivity checks the defining property of a crawl order:
// every prefix of the stream touches a connected region per component seed.
func TestBFSPrefixConnectivity(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 2000, OutDegree: 5, CopyFactor: 0.6, Seed: 1})
	edges := Edges(g, BFS, 0)
	// Union-find over the prefix: each new edge must touch a vertex already
	// seen, or start a new component (new crawl seed).
	seen := make(map[graph.VertexID]bool)
	components := 0
	for _, e := range edges {
		su, sv := seen[e.Src], seen[e.Dst]
		if !su && !sv {
			components++
		}
		seen[e.Src] = true
		seen[e.Dst] = true
	}
	// The copying-model graph is generated connected-ish; allow a few
	// seeds, but a shuffled stream would have thousands.
	if components > 20 {
		t.Fatalf("BFS stream opened %d fresh components; not a crawl order", components)
	}
}

func TestOrdersCoverDisconnectedGraphs(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 5, Dst: 6}, {Src: 3, Dst: 3}}
	g := graph.New(8, edges)
	for _, o := range []Order{BFS, Random} {
		out := Edges(g, o, 0)
		if !sameMultiset(edges, out) {
			t.Fatalf("%v dropped edges on disconnected graph: %v", o, out)
		}
	}
}

func TestEdgesEmptyGraph(t *testing.T) {
	g := graph.New(3, nil)
	for _, o := range []Order{Natural, BFS, Random} {
		if out := Edges(g, o, 0); len(out) != 0 {
			t.Fatalf("%v produced %d edges from empty graph", o, len(out))
		}
	}
}

// TestViewMatchesEdges: for every order, indexed iteration over the view
// must yield exactly the slice Edges materializes.
func TestViewMatchesEdges(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 800, OutDegree: 5, CopyFactor: 0.5, Seed: 11})
	for _, o := range []Order{Natural, BFS, Random} {
		v := NewView(g, o, 17)
		edges := Edges(g, o, 17)
		if v.Len() != len(edges) {
			t.Fatalf("%v: view length %d != %d", o, v.Len(), len(edges))
		}
		for i := range edges {
			if v.At(i) != edges[i] {
				t.Fatalf("%v: view[%d] = %v, want %v", o, i, v.At(i), edges[i])
			}
		}
		if o == Natural && v.Perm() != nil {
			t.Fatal("natural view carries a permutation")
		}
		if o != Natural && v.Perm() == nil {
			t.Fatalf("%v view is not permutation-backed", o)
		}
	}
}

// TestViewSlice: slicing a view must agree with slicing the materialized
// stream, for natural and permuted views alike.
func TestViewSlice(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 500, OutDegree: 4, CopyFactor: 0.5, Seed: 12})
	for _, o := range []Order{Natural, Random} {
		v := NewView(g, o, 3)
		edges := v.Materialize()
		lo, hi := 7, len(edges)-9
		sub := v.Slice(lo, hi)
		if sub.Len() != hi-lo {
			t.Fatalf("%v: sub length %d, want %d", o, sub.Len(), hi-lo)
		}
		for i := 0; i < sub.Len(); i++ {
			if sub.At(i) != edges[lo+i] {
				t.Fatalf("%v: sub[%d] = %v, want %v", o, i, sub.At(i), edges[lo+i])
			}
		}
	}
}

// TestViewOrderBytes: a permuted view owns 4 bytes per edge of ordering
// state, a natural view none.
func TestViewOrderBytes(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 300, OutDegree: 4, Seed: 13})
	if got := NewView(g, Natural, 0).OrderBytes(); got != 0 {
		t.Fatalf("natural OrderBytes = %d, want 0", got)
	}
	if got, want := NewView(g, BFS, 0).OrderBytes(), int64(g.NumEdges())*4; got != want {
		t.Fatalf("BFS OrderBytes = %d, want %d", got, want)
	}
}

func TestPermutedExplicit(t *testing.T) {
	base := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}
	v := Permuted(base, []int32{2, 0})
	if v.Len() != 2 || v.At(0) != base[2] || v.At(1) != base[0] {
		t.Fatalf("permuted view wrong: len=%d", v.Len())
	}
	m := v.Materialize()
	if len(m) != 2 || m[0] != base[2] {
		t.Fatal("materialize mismatch")
	}
}
