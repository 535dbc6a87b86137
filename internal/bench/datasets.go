// Package bench is the experiment harness: it holds the dataset registry
// standing in for the paper's crawls, one runner per table/figure of the
// evaluation section (Section VI) and the benchmark suite. One grid runner
// executes the suite's cells and those of the figures that are views of
// cells. cmd/experiments is its CLI; the root bench_test.go exposes the
// same runs as testing.B benchmarks.
package bench

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/graph"
)

// Dataset is a synthetic stand-in for one of the paper's graphs. Build is
// deterministic for a given scale; scale 1.0 is the default experiment
// size (laptop-scale, roughly 1/700 of the real crawl), and smaller scales
// shrink the vertex count proportionally for quick runs.
type Dataset struct {
	// Name matches the paper's alias (UK, Arabic, WebBase, IT, Twitter).
	Name string
	// Paper describes the original: source, |V|, |E|.
	Paper string
	// Kind is "web" or "social".
	Kind string
	// Build generates the graph at the given scale.
	Build func(scale float64) *graph.Graph
}

// Datasets returns the five evaluation graphs (Table III). The shapes
// mirror the originals' mean degrees: UK is moderate-degree and highly
// clusterable; Arabic denser; WebBase large and sparse; IT the densest and
// largest by edges; Twitter is the social graph with hubs but no site
// locality.
func Datasets() []Dataset {
	web := func(n, out, site int, intra, copyf float64, seed uint64) func(float64) *graph.Graph {
		return func(scale float64) *graph.Graph {
			nv := int(float64(n) * scale)
			if nv < 100 {
				nv = 100
			}
			return gen.Web(gen.WebConfig{
				N: nv, OutDegree: out, SiteMean: site,
				IntraSite: intra, CopyFactor: copyf, Seed: seed,
			})
		}
	}
	return []Dataset{
		{
			Name:  "UK",
			Paper: "uk-2002: 19M vertices, 0.3B edges (mean degree 16)",
			Kind:  "web",
			Build: web(30000, 8, 150, 0.88, 0.6, 1001),
		},
		{
			Name:  "Arabic",
			Paper: "arabic-2005: 22M vertices, 0.6B edges (mean degree 29)",
			Kind:  "web",
			Build: web(25000, 15, 120, 0.90, 0.6, 1002),
		},
		{
			Name:  "WebBase",
			Paper: "webbase-2001: 118M vertices, 1.0B edges (mean degree 9)",
			Kind:  "web",
			Build: web(80000, 5, 200, 0.85, 0.55, 1003),
		},
		{
			Name:  "IT",
			Paper: "it-2004: 41M vertices, 1.5B edges (mean degree 36)",
			Kind:  "web",
			Build: web(35000, 18, 150, 0.88, 0.65, 1004),
		},
		{
			Name:  "Twitter",
			Paper: "twitter: 41M vertices, 1.4B edges, social graph",
			Kind:  "social",
			// Social graphs have extreme hubs and only weak community
			// structure (follower communities are large and diffuse); the
			// web model with a low intra-community share and heavy copying
			// reproduces exactly the regime where the paper reports CLUGP
			// falling slightly behind HDRF.
			Build: web(30000, 18, 400, 0.40, 0.85, 1005),
		},
	}
}

// DatasetByName returns the named dataset or an error listing valid names.
func DatasetByName(name string) (Dataset, error) {
	for _, d := range Datasets() {
		if d.Name == name {
			return d, nil
		}
	}
	return Dataset{}, fmt.Errorf("bench: unknown dataset %q (want UK, Arabic, WebBase, IT or Twitter)", name)
}

// WebDatasets returns only the four web graphs (the Figure 3 and 8 set).
func WebDatasets() []Dataset {
	all := Datasets()
	web := all[:0:0]
	for _, d := range all {
		if d.Kind == "web" {
			web = append(web, d)
		}
	}
	return web
}
