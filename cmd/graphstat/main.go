// Command graphstat prints structural statistics of a graph: scale, degree
// distribution summary, power-law fit, degree Gini, connectivity - the
// properties that decide which partitioning family suits the graph
// (Section II-C).
//
// Usage:
//
//	graphstat -in graph.txt
//	graphstat -preset Arabic -hist
//	graphstat -in graph.cgr -verify   # checksum-scan only, no statistics
//
// -verify checksum-scans a .cgr or .cpr file and exits: every payload
// block is proven against the file's CRC32C trailer, and a corruption
// report names the first corrupt block and its byte range. Files in the
// retired CGR1/CGR2/CPR1 formats are rejected by their magic.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"

	"repro"
)

func main() {
	var (
		in     = flag.String("in", "", "input graph file (text or binary)")
		preset = flag.String("preset", "", "generate a dataset preset instead of reading a file")
		scale  = flag.Float64("scale", 1.0, "preset scale factor")
		hist   = flag.Bool("hist", false, "print the degree histogram (log-binned)")
		verify = flag.Bool("verify", false, "checksum-scan -in (.cgr or .cpr) and exit; reports the first corrupt block")
	)
	flag.Parse()

	if *verify {
		if *in == "" {
			fmt.Fprintln(os.Stderr, "graphstat: -verify needs -in FILE")
			os.Exit(1)
		}
		if err := runVerify(*in, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "graphstat:", err)
			os.Exit(1)
		}
		return
	}

	g, err := load(*in, *preset, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphstat:", err)
		os.Exit(1)
	}

	s := repro.ComputeStats(g)
	fmt.Printf("vertices:        %d\n", s.NumVertices)
	fmt.Printf("edges:           %d\n", s.NumEdges)
	// For compressed inputs, report the on-disk encoding and its size so
	// the compression is visible from the CLI.
	if *in != "" {
		if f, err := repro.OpenCompressed(*in); err == nil {
			bpe := 0.0
			if f.Len() > 0 {
				bpe = float64(f.SizeBytes()) / float64(f.Len())
			}
			fmt.Printf("on-disk format:  %s (%d bytes, %.2f bytes/edge)\n", f.Format(), f.SizeBytes(), bpe)
			f.Close()
		}
	}
	fmt.Printf("mean degree:     %.2f\n", s.MeanDegree)
	fmt.Printf("max degree:      %d\n", s.MaxDegree)
	fmt.Printf("power-law alpha: %.2f (tail fit from degree %d)\n", s.Alpha, max32(s.DMin, 8))

	comps := repro.ReferenceComponents(g)
	seen := map[uint32]bool{}
	for _, c := range comps {
		seen[c] = true
	}
	fmt.Printf("components:      %d\n", len(seen))

	if *hist {
		fmt.Println("\ndegree histogram (log-binned):")
		degs, counts := g.DegreeHistogram()
		// Log-2 bins.
		bins := map[int]int{}
		for i, d := range degs {
			b := 0
			for v := d; v > 1; v >>= 1 {
				b++
			}
			bins[b] += counts[i]
		}
		for b := 0; b <= 32; b++ {
			if c, ok := bins[b]; ok {
				lo := 1 << uint(b) >> 1
				if b == 0 {
					lo = 0
				}
				fmt.Printf("  deg %7d..%-7d: %d\n", lo, (1<<uint(b))-1+lo, c)
			}
		}
	}
}

// runVerify implements -verify: checksum-scan path and report what was
// proven. A corruption error (from the integrity trailer) already names
// the first corrupt block and its byte range, so it is returned verbatim.
func runVerify(path string, w io.Writer) error {
	info, err := repro.VerifyFile(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s: %s ok: %d blocks over %d payload bytes verified (%d bytes on disk)\n",
		path, info.Kind, info.Blocks, info.PayloadBytes, info.SizeBytes)
	return nil
}

func max32(a uint32, b uint32) uint32 {
	if a > b {
		return a
	}
	return b
}

func load(in, preset string, scale float64) (*repro.Graph, error) {
	if preset != "" {
		for _, d := range repro.Datasets() {
			if d.Name == preset {
				return d.Build(scale), nil
			}
		}
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	if in == "" {
		return nil, fmt.Errorf("need -in FILE or -preset NAME")
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(4)
	if err == nil && repro.SniffCompressed(head) {
		return repro.ReadCompressed(br)
	}
	return repro.ReadEdgeList(br)
}
