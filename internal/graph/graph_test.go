package graph

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func small() *Graph {
	return New(0, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 1}, {3, 3}})
}

func TestNewInfersVertexCount(t *testing.T) {
	g := small()
	if g.NumVertices != 4 {
		t.Fatalf("NumVertices = %d, want 4", g.NumVertices)
	}
	if g.NumEdges() != 5 {
		t.Fatalf("NumEdges = %d, want 5", g.NumEdges())
	}
}

func TestNewExplicitVertexCount(t *testing.T) {
	g := New(10, []Edge{{0, 1}})
	if g.NumVertices != 10 {
		t.Fatalf("NumVertices = %d, want 10", g.NumVertices)
	}
}

func TestDegrees(t *testing.T) {
	g := small()
	deg := g.Degrees()
	// Vertex 3 has a self-loop (3,3): counts 2, plus (3,1): total 3.
	want := []uint32{2, 3, 2, 3}
	for v, w := range want {
		if deg[v] != w {
			t.Errorf("deg[%d] = %d, want %d", v, deg[v], w)
		}
	}
}

func TestMaxDegree(t *testing.T) {
	if got := small().MaxDegree(); got != 3 {
		t.Fatalf("MaxDegree = %d, want 3", got)
	}
	if got := New(5, nil).MaxDegree(); got != 0 {
		t.Fatalf("empty MaxDegree = %d, want 0", got)
	}
}

func TestValidate(t *testing.T) {
	if err := small().Validate(); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	bad := &Graph{NumVertices: 2, Edges: []Edge{{0, 5}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range edge accepted")
	}
}

func TestCloneIndependent(t *testing.T) {
	g := small()
	c := g.Clone()
	c.Edges[0] = Edge{9, 9}
	if g.Edges[0] == c.Edges[0] {
		t.Fatal("Clone shares edge storage")
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := small()
	var buf bytes.Buffer
	if err := g.WriteEdgeList(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices != g.NumVertices || back.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip shape %d/%d, want %d/%d", back.NumVertices, back.NumEdges(), g.NumVertices, g.NumEdges())
	}
	for i := range g.Edges {
		if g.Edges[i] != back.Edges[i] {
			t.Fatalf("edge %d: %v != %v", i, g.Edges[i], back.Edges[i])
		}
	}
}

func TestReadEdgeListCommentsAndSeparators(t *testing.T) {
	in := "# comment\n% another\n0 1\n1\t2\n2,3\n\n"
	g, err := ReadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 || g.NumVertices != 4 {
		t.Fatalf("got %d edges %d vertices, want 3, 4", g.NumEdges(), g.NumVertices)
	}
}

func TestReadEdgeListRejectsGarbage(t *testing.T) {
	if _, err := ReadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Fatal("missing dst accepted")
	}
	if _, err := ReadEdgeList(strings.NewReader("1 -2\n")); err == nil {
		t.Fatal("negative dst accepted")
	}
}

func TestCSR(t *testing.T) {
	g := small()
	csr := BuildCSR(g)
	if csr.OutDegree(3) != 2 {
		t.Fatalf("OutDegree(3) = %d, want 2", csr.OutDegree(3))
	}
	n3 := csr.Neigh(3)
	if len(n3) != 2 || n3[0] != 1 || n3[1] != 3 {
		t.Fatalf("Neigh(3) = %v, want [1 3]", n3)
	}
	// Total neighbours == edges.
	total := 0
	for v := 0; v < g.NumVertices; v++ {
		total += csr.OutDegree(VertexID(v))
	}
	if total != g.NumEdges() {
		t.Fatalf("CSR holds %d edges, want %d", total, g.NumEdges())
	}
}

func TestUndirectedCSR(t *testing.T) {
	g := small()
	csr := BuildUndirectedCSR(g)
	total := 0
	for v := 0; v < g.NumVertices; v++ {
		total += csr.OutDegree(VertexID(v))
	}
	if total != 2*g.NumEdges() {
		t.Fatalf("undirected CSR holds %d half-edges, want %d", total, 2*g.NumEdges())
	}
	// Edge (0,1) must appear from both sides.
	found := false
	for _, w := range csr.Neigh(1) {
		if w == 0 {
			found = true
		}
	}
	if !found {
		t.Fatal("reverse direction of (0,1) missing")
	}
}

func TestCSRMatchesEdgeList(t *testing.T) {
	check := func(raw []uint16, n uint8) bool {
		nv := int(n)%64 + 2
		var edges []Edge
		for _, r := range raw {
			edges = append(edges, Edge{VertexID(int(r) % nv), VertexID(int(r>>8) % nv)})
		}
		g := New(nv, edges)
		csr := BuildCSR(g)
		// Count every edge through the CSR.
		count := make(map[Edge]int)
		for v := 0; v < nv; v++ {
			for _, w := range csr.Neigh(VertexID(v)) {
				count[Edge{VertexID(v), w}]++
			}
		}
		for _, e := range edges {
			count[e]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPowerLawAlpha(t *testing.T) {
	// Construct degrees following f(d) ~ d^-2.5 and verify the MLE
	// recovers the exponent within tolerance.
	// The continuous-approximation MLE is only calibrated for xmin >~ 6
	// (Clauset-Shalizi-Newman), so fit the tail from degree 10 up.
	var degrees []uint32
	for d := uint32(1); d <= 1000; d++ {
		count := int(1e7 * math.Pow(float64(d), -2.5))
		for i := 0; i < count; i++ {
			degrees = append(degrees, d)
		}
	}
	alpha := PowerLawAlpha(degrees, 10)
	if alpha < 2.3 || alpha > 2.7 {
		t.Fatalf("fitted alpha %v, want ~2.5", alpha)
	}
}

func TestGiniCoefficient(t *testing.T) {
	uniform := make([]uint32, 1000)
	for i := range uniform {
		uniform[i] = 5
	}
	if gi := GiniCoefficient(uniform); gi > 0.01 {
		t.Fatalf("uniform degrees Gini %v, want ~0", gi)
	}
	skewed := make([]uint32, 1000)
	skewed[0] = 100000
	for i := 1; i < len(skewed); i++ {
		skewed[i] = 1
	}
	if gi := GiniCoefficient(skewed); gi < 0.9 {
		t.Fatalf("extreme skew Gini %v, want > 0.9", gi)
	}
	if gi := GiniCoefficient(nil); gi != 0 {
		t.Fatalf("empty Gini %v, want 0", gi)
	}
}

func TestComputeStats(t *testing.T) {
	g := small()
	s := ComputeStats(g)
	if s.NumVertices != 4 || s.NumEdges != 5 {
		t.Fatalf("stats shape %+v", s)
	}
	if s.MaxDegree != 3 {
		t.Fatalf("MaxDegree %d, want 3", s.MaxDegree)
	}
	if s.MeanDegree <= 0 {
		t.Fatalf("MeanDegree %v, want > 0", s.MeanDegree)
	}
}

func TestDegreeHistogram(t *testing.T) {
	g := small()
	degs, counts := g.DegreeHistogram()
	if len(degs) != len(counts) {
		t.Fatal("length mismatch")
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != g.NumVertices {
		t.Fatalf("histogram covers %d vertices, want %d", total, g.NumVertices)
	}
	for i := 1; i < len(degs); i++ {
		if degs[i] <= degs[i-1] {
			t.Fatal("histogram degrees not strictly increasing")
		}
	}
}
