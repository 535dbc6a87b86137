// Package gen provides deterministic synthetic graph generators that stand
// in for the paper's real crawl datasets (uk-2002, arabic-2005,
// webbase-2001, it-2004, twitter), which are multi-gigabyte WebGraph files
// we cannot ship.
//
// The substitution rationale (see DESIGN.md): every partitioner in the study
// reacts only to (a) the power-law degree skew, (b) community/link locality,
// and (c) the stream order. The Web generator models all three the way real
// crawls exhibit them: pages are grouped into power-law-sized sites, most
// links stay within the site (dense local clusters - the property CLUGP's
// streaming clustering exploits), and cross-site links copy the destination
// of a random existing link (Kumar et al.'s copying model, which the paper
// itself cites: uniform edge-copying is in-degree-preferential attachment
// and yields power-law in-degrees). Pages are emitted in site order, the
// BFS-like order of a crawler walking site by site. The Barabasi-Albert
// model produces hubs without web-like locality and stands in for the
// Twitter social graph, where the paper reports CLUGP's edge over HDRF
// disappears.
package gen

import (
	"fmt"

	"repro/internal/graph"
	"repro/internal/xrand"
)

// WebConfig parameterizes the site-structured copying-model web graph.
type WebConfig struct {
	// N is the number of pages (vertices).
	N int
	// OutDegree is the mean number of out-links per page. Actual
	// out-degrees are drawn uniformly from [1, 2*OutDegree-1].
	OutDegree int
	// IntraSite in [0,1] is the probability that an out-link targets a page
	// of the same site. Real web crawls sit around 0.7-0.8; this is the
	// knob that makes the graph clusterable. Zero means 0.7.
	IntraSite float64
	// SiteMean is the mean number of pages per site; site sizes follow a
	// shifted geometric-of-geometric (heavy-ish tail). Zero means 64.
	SiteMean int
	// CopyFactor in [0,1] is the probability that a cross-site link copies
	// the destination of a uniformly random existing cross-site link
	// (in-degree preferential attachment) instead of linking to a uniform
	// random earlier page. Higher values mean heavier-tailed in-degrees.
	// Zero means 0.5.
	CopyFactor float64
	// Seed makes generation deterministic.
	Seed uint64
}

func (c WebConfig) withDefaults() WebConfig {
	if c.OutDegree < 1 {
		c.OutDegree = 8
	}
	if c.IntraSite == 0 {
		c.IntraSite = 0.7
	}
	if c.SiteMean == 0 {
		c.SiteMean = 64
	}
	if c.CopyFactor == 0 {
		c.CopyFactor = 0.5
	}
	return c
}

// Web generates a directed site-structured web graph. Edges are emitted in
// page-creation order (site after site), the natural crawl order the paper
// assumes for web graph streams.
func Web(cfg WebConfig) *graph.Graph {
	if cfg.N < 2 {
		panic(fmt.Sprintf("gen: Web needs N >= 2, got %d", cfg.N))
	}
	if cfg.IntraSite < 0 || cfg.IntraSite > 1 {
		panic(fmt.Sprintf("gen: IntraSite %v out of [0,1]", cfg.IntraSite))
	}
	if cfg.CopyFactor < 0 || cfg.CopyFactor > 1 {
		panic(fmt.Sprintf("gen: CopyFactor %v out of [0,1]", cfg.CopyFactor))
	}
	cfg = cfg.withDefaults()
	rng := xrand.New(cfg.Seed)

	edges := make([]graph.Edge, 0, cfg.N*cfg.OutDegree)
	// globalDst records destinations of cross-site links; copying a uniform
	// element is in-degree-proportional sampling over cross-site linkage.
	globalDst := make([]graph.VertexID, 0, cfg.N)

	siteStart := 0
	siteEnd := siteSize(rng, cfg.SiteMean)
	if siteEnd > cfg.N {
		siteEnd = cfg.N
	}
	for v := 1; v < cfg.N; v++ {
		if v >= siteEnd { // start a new site
			siteStart = siteEnd
			siteEnd += siteSize(rng, cfg.SiteMean)
			if siteEnd > cfg.N {
				siteEnd = cfg.N
			}
		}
		d := 1 + rng.Intn(2*cfg.OutDegree-1)
		for i := 0; i < d; i++ {
			var dst graph.VertexID
			if rng.Float64() < cfg.IntraSite && v > siteStart {
				// Intra-site link to an earlier page of the same site.
				dst = graph.VertexID(siteStart + rng.Intn(v-siteStart))
			} else if len(globalDst) > 0 && rng.Float64() < cfg.CopyFactor {
				// Cross-site: copy the destination of an existing link.
				dst = globalDst[rng.Intn(len(globalDst))]
				if int(dst) >= v { // copied a forward reference to own site
					dst = graph.VertexID(rng.Intn(v))
				}
				globalDst = append(globalDst, dst)
			} else {
				// Cross-site: uniform earlier page.
				dst = graph.VertexID(rng.Intn(v))
				globalDst = append(globalDst, dst)
			}
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: dst})
		}
	}
	return graph.New(cfg.N, edges)
}

// siteSize draws a site size with mean roughly m and a heavy-ish tail:
// a shifted geometric whose parameter is itself occasionally boosted,
// giving many small sites and a few very large ones, like real hosts.
func siteSize(rng *xrand.RNG, m int) int {
	// With prob 0.1 draw a "large site" with mean 4m, else mean ~2/3 m;
	// overall mean stays near m.
	mean := float64(m) * 2 / 3
	if rng.Float64() < 0.1 {
		mean = float64(m) * 4
	}
	// Geometric with the chosen mean.
	size := 1
	p := 1 / mean
	for rng.Float64() > p && size < 100*m {
		size++
	}
	return size
}

// BarabasiAlbert generates a directed preferential-attachment graph: each
// new vertex attaches m out-edges to existing vertices chosen proportionally
// to their current total degree. This yields a power-law tail with exponent
// about 3 and, unlike the web model, no particular link locality -
// the social-graph regime where the paper reports CLUGP loses its edge.
func BarabasiAlbert(n, m int, seed uint64) *graph.Graph {
	if n < 2 || m < 1 {
		panic(fmt.Sprintf("gen: BarabasiAlbert needs n>=2, m>=1 (n=%d m=%d)", n, m))
	}
	rng := xrand.New(seed)
	edges := make([]graph.Edge, 0, n*m)
	// targets holds one entry per edge endpoint, so uniform sampling from it
	// is degree-proportional sampling (the standard trick).
	targets := make([]graph.VertexID, 0, 2*n*m)
	targets = append(targets, 0, 1)
	edges = append(edges, graph.Edge{Src: 1, Dst: 0})
	for v := 2; v < n; v++ {
		deg := m
		if v <= m {
			deg = v
		}
		for i := 0; i < deg; i++ {
			dst := targets[rng.Intn(len(targets))]
			if int(dst) == v {
				dst = graph.VertexID(rng.Intn(v))
			}
			edges = append(edges, graph.Edge{Src: graph.VertexID(v), Dst: dst})
			targets = append(targets, graph.VertexID(v), dst)
		}
	}
	return graph.New(n, edges)
}

// RMAT generates a recursive-matrix (Kronecker) graph with 2^scale vertices
// and edgeFactor * 2^scale edges, using the standard (a,b,c,d) quadrant
// probabilities. Graph500 uses (0.57, 0.19, 0.19, 0.05).
func RMAT(scale, edgeFactor int, a, b, c float64, seed uint64) *graph.Graph {
	n := 1 << uint(scale)
	m := edgeFactor * n
	d := 1 - a - b - c
	if d < 0 {
		panic(fmt.Sprintf("gen: RMAT probabilities exceed 1 (a=%v b=%v c=%v)", a, b, c))
	}
	rng := xrand.New(seed)
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		var u, v int
		for bit := scale - 1; bit >= 0; bit-- {
			r := rng.Float64()
			switch {
			case r < a:
				// top-left: no bits set
			case r < a+b:
				v |= 1 << uint(bit)
			case r < a+b+c:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
	}
	return graph.New(n, edges)
}

// ErdosRenyi generates n vertices and m uniformly random directed edges.
// It is the no-skew control: partitioners relying on power-law structure
// (DBH, HDRF, CLUGP) should lose their advantage here.
func ErdosRenyi(n, m int, seed uint64) *graph.Graph {
	if n < 2 {
		panic(fmt.Sprintf("gen: ErdosRenyi needs n >= 2, got %d", n))
	}
	rng := xrand.New(seed)
	edges := make([]graph.Edge, 0, m)
	for i := 0; i < m; i++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u == v {
			v = (v + 1) % n
		}
		edges = append(edges, graph.Edge{Src: graph.VertexID(u), Dst: graph.VertexID(v)})
	}
	return graph.New(n, edges)
}

// SampleVertices returns the subgraph induced by keeping each vertex with
// probability frac (seeded), relabelling kept vertices densely. This is the
// random-sampling procedure behind the paper's Figure 5 graph-size sweep
// ("we randomly sample UK-2002 to create a series of graph datasets").
func SampleVertices(g *graph.Graph, frac float64, seed uint64) *graph.Graph {
	if frac <= 0 || frac > 1 {
		panic(fmt.Sprintf("gen: sample fraction %v out of (0,1]", frac))
	}
	rng := xrand.New(seed)
	keep := make([]int32, g.NumVertices)
	n := 0
	for v := range keep {
		if rng.Float64() < frac {
			keep[v] = int32(n)
			n++
		} else {
			keep[v] = -1
		}
	}
	var edges []graph.Edge
	for _, e := range g.Edges {
		su, sv := keep[e.Src], keep[e.Dst]
		if su >= 0 && sv >= 0 {
			edges = append(edges, graph.Edge{Src: graph.VertexID(su), Dst: graph.VertexID(sv)})
		}
	}
	return graph.New(n, edges)
}
