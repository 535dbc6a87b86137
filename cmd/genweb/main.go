// Command genweb generates deterministic synthetic graphs in edge-list
// format: the site-structured web model, Barabasi-Albert, RMAT and
// Erdos-Renyi, plus the named dataset presets of the experiment harness.
// With -binary the graph is written as a compressed, checksummed CGR3 file
// (the input of clugp -stream); this is also how files in the retired
// CGR1/CGR2 formats are regenerated.
//
// Usage:
//
//	genweb -preset UK -scale 1.0 -out uk.txt
//	genweb -model web -n 100000 -outdeg 8 -intrasite 0.88 -out web.txt
//	genweb -model ba -n 50000 -m 16 -out social.txt
//	genweb -preset UK -binary -out uk.cgr   # CGR3, checksummed
//
// -out is written atomically (temp file + rename), so an interrupted run
// never leaves a truncated graph at the final path.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"repro"
)

func main() {
	var (
		preset    = flag.String("preset", "", "dataset preset (UK, Arabic, WebBase, IT, Twitter); overrides -model")
		scale     = flag.Float64("scale", 1.0, "preset scale factor")
		model     = flag.String("model", "web", "generator: web, ba, rmat, er")
		n         = flag.Int("n", 100000, "number of vertices (web, ba, er)")
		outdeg    = flag.Int("outdeg", 8, "mean out-degree (web)")
		intrasite = flag.Float64("intrasite", 0.7, "intra-site link probability (web)")
		sitemean  = flag.Int("sitemean", 64, "mean site size (web)")
		copyf     = flag.Float64("copy", 0.5, "copying probability for cross-site links (web)")
		m         = flag.Int("m", 8, "edges per vertex (ba) / edges total (er) / edge factor (rmat)")
		scalelog  = flag.Int("rmatscale", 16, "log2 vertex count (rmat)")
		seed      = flag.Uint64("seed", 1, "generator seed")
		out       = flag.String("out", "", "output file (default stdout)")
		binary    = flag.Bool("binary", false, "write the gap-compressed, checksummed binary format (CGR3) instead of text")
		stats     = flag.Bool("stats", false, "print graph statistics to stderr")
	)
	flag.Parse()

	// An interrupt between the temp-file create and the commit must not
	// leave a stray .tmp next to -out: sweep pending atomic writes on exit.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		if n := repro.AbortPendingWrites(); n > 0 {
			fmt.Fprintf(os.Stderr, "genweb: %v: swept %d pending write(s)\n", s, n)
		} else {
			fmt.Fprintf(os.Stderr, "genweb: %v\n", s)
		}
		os.Exit(1)
	}()

	g, err := build(*preset, *scale, *model, *n, *outdeg, *intrasite, *sitemean, *copyf, *m, *scalelog, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "genweb:", err)
		os.Exit(1)
	}
	if *stats {
		s := repro.ComputeStats(g)
		fmt.Fprintf(os.Stderr, "vertices=%d edges=%d maxdeg=%d meandeg=%.2f alpha=%.2f\n",
			s.NumVertices, s.NumEdges, s.MaxDegree, s.MeanDegree, s.Alpha)
	}
	var w io.Writer = os.Stdout
	var aw *repro.AtomicWriter
	if *out != "" {
		aw, err = repro.NewAtomicWriter(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "genweb:", err)
			os.Exit(1)
		}
		defer aw.Abort()
		w = aw
	}
	if *binary {
		err = repro.WriteCompressed(w, g)
	} else {
		err = g.WriteEdgeList(w)
	}
	if err == nil && aw != nil {
		err = aw.Commit()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "genweb:", err)
		os.Exit(1)
	}
}

func build(preset string, scale float64, model string, n, outdeg int, intrasite float64, sitemean int, copyf float64, m, rmatScale int, seed uint64) (*repro.Graph, error) {
	if preset != "" {
		for _, d := range repro.Datasets() {
			if d.Name == preset {
				return d.Build(scale), nil
			}
		}
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	switch model {
	case "web":
		return repro.GenerateWeb(repro.WebConfig{
			N: n, OutDegree: outdeg, IntraSite: intrasite,
			SiteMean: sitemean, CopyFactor: copyf, Seed: seed,
		}), nil
	case "ba":
		return repro.GenerateBarabasiAlbert(n, m, seed), nil
	case "rmat":
		return repro.GenerateRMAT(rmatScale, m, 0.57, 0.19, 0.19, seed), nil
	case "er":
		return repro.GenerateErdosRenyi(n, m*n, seed), nil
	}
	return nil, fmt.Errorf("unknown model %q (want web, ba, rmat or er)", model)
}
