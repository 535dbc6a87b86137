package gen

import (
	"testing"

	"repro/internal/graph"
)

func TestWebShape(t *testing.T) {
	g := Web(WebConfig{N: 5000, OutDegree: 6, CopyFactor: 0.6, Seed: 1})
	if g.NumVertices != 5000 {
		t.Fatalf("NumVertices = %d", g.NumVertices)
	}
	m := g.NumEdges()
	// Expected ~ N * OutDegree edges, with wide tolerance for the uniform
	// out-degree draw.
	if m < 5000*3 || m > 5000*10 {
		t.Fatalf("edges = %d, outside plausible range", m)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWebDeterministic(t *testing.T) {
	a := Web(WebConfig{N: 1000, OutDegree: 5, CopyFactor: 0.5, Seed: 9})
	b := Web(WebConfig{N: 1000, OutDegree: 5, CopyFactor: 0.5, Seed: 9})
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed, different edge counts")
	}
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatalf("same seed diverged at edge %d", i)
		}
	}
	c := Web(WebConfig{N: 1000, OutDegree: 5, CopyFactor: 0.5, Seed: 10})
	diff := false
	for i := 0; i < min(len(a.Edges), len(c.Edges)); i++ {
		if a.Edges[i] != c.Edges[i] {
			diff = true
			break
		}
	}
	if !diff && a.NumEdges() == c.NumEdges() {
		t.Fatal("different seeds produced identical graphs")
	}
}

func TestWebIsSkewed(t *testing.T) {
	// The copying model must produce a heavy-tailed in-degree distribution:
	// high Gini and a max degree far above the mean.
	g := Web(WebConfig{N: 20000, OutDegree: 8, CopyFactor: 0.65, Seed: 2})
	s := graph.ComputeStats(g)
	if s.MaxDegree < 20*uint32(s.MeanDegree) {
		t.Fatalf("max degree %d vs mean %.1f: no heavy tail", s.MaxDegree, s.MeanDegree)
	}
	gini := graph.GiniCoefficient(g.Degrees())
	if gini < 0.3 {
		t.Fatalf("degree Gini %v, want skew > 0.3", gini)
	}
	// Power-law exponent in the web-graph ballpark (roughly 1.5-3.5).
	if s.Alpha < 1.2 || s.Alpha > 4.5 {
		t.Fatalf("fitted alpha %v implausible for a web graph", s.Alpha)
	}
}

func TestWebCopyFactorControlsSkew(t *testing.T) {
	lo := Web(WebConfig{N: 10000, OutDegree: 6, CopyFactor: 0.1, Seed: 3})
	hi := Web(WebConfig{N: 10000, OutDegree: 6, CopyFactor: 0.9, Seed: 3})
	gLo := graph.GiniCoefficient(lo.Degrees())
	gHi := graph.GiniCoefficient(hi.Degrees())
	if gHi <= gLo {
		t.Fatalf("higher copy factor should increase skew: %.3f vs %.3f", gHi, gLo)
	}
}

func TestWebIntraSiteLocality(t *testing.T) {
	// A high IntraSite share must make most edges short-range (within the
	// contiguous id block of a site), far more so than a low share.
	local := Web(WebConfig{N: 10000, OutDegree: 5, IntraSite: 0.85, SiteMean: 50, Seed: 4})
	global := Web(WebConfig{N: 10000, OutDegree: 5, IntraSite: 0.05, SiteMean: 50, Seed: 4})
	shortFrac := func(g *graph.Graph) float64 {
		short := 0
		for _, e := range g.Edges {
			span := int64(e.Src) - int64(e.Dst)
			if span < 0 {
				span = -span
			}
			if span <= 500 {
				short++
			}
		}
		return float64(short) / float64(g.NumEdges())
	}
	fl, fg := shortFrac(local), shortFrac(global)
	if fl < 0.7 {
		t.Fatalf("IntraSite=0.85 yields only %.2f short-range edges", fl)
	}
	if fl <= fg {
		t.Fatalf("IntraSite has no locality effect: %.2f vs %.2f", fl, fg)
	}
}

func TestWebPanicsOnBadConfig(t *testing.T) {
	mustPanic(t, func() { Web(WebConfig{N: 1}) })
	mustPanic(t, func() { Web(WebConfig{N: 100, CopyFactor: 1.5}) })
}

func TestBarabasiAlbertShape(t *testing.T) {
	g := BarabasiAlbert(5000, 4, 7)
	if g.NumVertices != 5000 {
		t.Fatalf("NumVertices = %d", g.NumVertices)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	m := g.NumEdges()
	if m < 4*4000 || m > 4*5001 {
		t.Fatalf("edges = %d, want ~%d", m, 4*5000)
	}
	s := graph.ComputeStats(g)
	if s.MaxDegree < 50 {
		t.Fatalf("BA max degree %d: hubs missing", s.MaxDegree)
	}
}

func TestBarabasiAlbertDeterministic(t *testing.T) {
	a := BarabasiAlbert(500, 3, 1)
	b := BarabasiAlbert(500, 3, 1)
	for i := range a.Edges {
		if a.Edges[i] != b.Edges[i] {
			t.Fatal("same seed diverged")
		}
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	mustPanic(t, func() { BarabasiAlbert(1, 1, 0) })
	mustPanic(t, func() { BarabasiAlbert(10, 0, 0) })
}

func TestRMATShape(t *testing.T) {
	g := RMAT(12, 8, 0.57, 0.19, 0.19, 11)
	if g.NumVertices != 1<<12 {
		t.Fatalf("NumVertices = %d, want %d", g.NumVertices, 1<<12)
	}
	if g.NumEdges() != 8<<12 {
		t.Fatalf("NumEdges = %d, want %d", g.NumEdges(), 8<<12)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// RMAT with skewed quadrants produces skewed degrees.
	if gi := graph.GiniCoefficient(g.Degrees()); gi < 0.2 {
		t.Fatalf("RMAT Gini %v, want skew", gi)
	}
}

func TestRMATPanicsOnBadProbs(t *testing.T) {
	mustPanic(t, func() { RMAT(4, 2, 0.5, 0.4, 0.3, 0) })
}

func TestErdosRenyiShape(t *testing.T) {
	g := ErdosRenyi(1000, 5000, 13)
	if g.NumVertices != 1000 || g.NumEdges() != 5000 {
		t.Fatalf("shape %d/%d", g.NumVertices, g.NumEdges())
	}
	// ER degrees are near-uniform: low Gini.
	if gi := graph.GiniCoefficient(g.Degrees()); gi > 0.35 {
		t.Fatalf("ER Gini %v, want near-uniform", gi)
	}
	for _, e := range g.Edges {
		if e.Src == e.Dst {
			t.Fatal("self loop in ER output")
		}
	}
}

func TestSampleVertices(t *testing.T) {
	g := Web(WebConfig{N: 5000, OutDegree: 5, CopyFactor: 0.5, Seed: 17})
	s := SampleVertices(g, 0.5, 99)
	if s.NumVertices < 2000 || s.NumVertices > 3000 {
		t.Fatalf("sampled %d vertices from 5000 at 0.5", s.NumVertices)
	}
	if s.NumEdges() >= g.NumEdges() || s.NumEdges() == 0 {
		t.Fatalf("sampled edges %d implausible (orig %d)", s.NumEdges(), g.NumEdges())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	// Full sample is the identity up to relabelling (here: exactly equal).
	full := SampleVertices(g, 1.0, 1)
	if full.NumEdges() != g.NumEdges() || full.NumVertices != g.NumVertices {
		t.Fatal("frac=1 sample lost structure")
	}
}

func TestSamplePanics(t *testing.T) {
	g := Web(WebConfig{N: 100, OutDegree: 3, CopyFactor: 0.5, Seed: 1})
	mustPanic(t, func() { SampleVertices(g, 0, 1) })
	mustPanic(t, func() { SampleVertices(g, 1.5, 1) })
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
