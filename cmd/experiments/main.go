// Command experiments regenerates the paper's tables and figures on the
// synthetic stand-in datasets, and runs the machine-readable benchmark
// suite that tracks this repo's performance over time.
//
// Figure mode prints each artefact as an aligned text table whose
// rows/series correspond to the paper's plot:
//
//	experiments -fig 3              # Figure 3 (a-d)
//	experiments -fig table1
//	experiments -all -scale 0.5     # everything, at half dataset size
//
// Suite mode runs the full algorithm x dataset x k x seed grid on a worker
// pool and writes a BENCH_<name>.json report for regression tracking:
//
//	experiments -json                          # parallel suite -> BENCH_suite.json
//	experiments -json -workers 4 -seeds 3      # 4 workers, 3 seed replicates
//	experiments -json -baseline BENCH_suite.json   # diff against a prior report
//
// With -baseline the exit status is 2 when any cell regressed beyond
// tolerance, so CI can gate on it.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
)

func main() {
	var (
		fig      = flag.String("fig", "", "experiment to run: "+strings.Join(repro.ExperimentNames(), ", "))
		all      = flag.Bool("all", false, "run every experiment")
		scale    = flag.Float64("scale", 1.0, "dataset scale factor")
		seed     = flag.Uint64("seed", 42, "seed for stochastic components")
		quiet    = flag.Bool("q", false, "suppress per-run progress lines")
		workers  = flag.Int("workers", 0, "suite worker-pool size (0 = GOMAXPROCS)")
		jsonOut  = flag.Bool("json", false, "run the benchmark suite and write BENCH_<name>.json")
		baseline = flag.String("baseline", "", "diff the suite against a prior BENCH_*.json report")
		name     = flag.String("name", "suite", "experiment name for the JSON report filename")
		seeds    = flag.Int("seeds", 1, "number of seed replicates per suite cell (seed, seed+1, ...)")
		rtol     = flag.Float64("rtol", 0, "runtime regression tolerance for -baseline (0 = default 0.5; CI on unmatched hardware should raise it)")
		streamC  = flag.Bool("streamcells", true, "measure the out-of-core streaming grids (one mmap/CGR3 cell per dataset, decode-worker scaling, serve and checkpoint cells) in suite mode")
		cpuprof  = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprof  = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		algoList = flag.String("algos", "", "comma-separated algorithms for the suite (default: the paper's six)")
		dsList   = flag.String("datasets", "", "comma-separated datasets for the suite (default: all five)")
		ksList   = flag.String("ks", "", "comma-separated partition counts for the suite (default: 4..256)")
	)
	flag.Parse()

	stop, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		exit(1)
	}
	stopProfiles = stop
	defer stop()

	// The suite (-json/-baseline) and figure (-fig/-all) modes are
	// mutually exclusive; several flags only apply to the suite. Surface
	// conflicts instead of silently ignoring flags.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if *jsonOut || *baseline != "" {
		if *fig != "" || *all {
			fmt.Fprintln(os.Stderr, "experiments: -json/-baseline run the benchmark suite and cannot be combined with -fig or -all")
			exit(2)
		}
		runSuite(*name, *scale, *seed, *seeds, *workers, *algoList, *dsList, *ksList, *jsonOut, *baseline, *quiet, *rtol, *streamC)
		return
	}
	for _, suiteOnly := range []string{"workers", "seeds", "name", "algos", "datasets", "ks", "rtol", "streamcells"} {
		if set[suiteOnly] {
			fmt.Fprintf(os.Stderr, "experiments: warning: -%s only applies to suite mode (-json/-baseline) and is ignored here\n", suiteOnly)
		}
	}

	cfg := repro.ExperimentConfig{Scale: *scale, Seed: *seed}
	if !*quiet {
		cfg.Progress = os.Stderr
	}

	names := repro.ExperimentNames()
	if !*all {
		if *fig == "" {
			fmt.Fprintln(os.Stderr, "experiments: need -fig NAME, -all or -json; valid names:", strings.Join(names, ", "))
			exit(2)
		}
		names = []string{*fig}
	}

	start := time.Now()
	for _, name := range names {
		tables, err := repro.RunExperiment(name, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			exit(1)
		}
		for i := range tables {
			if err := tables[i].Render(os.Stdout); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				exit(1)
			}
		}
	}
	if !*quiet {
		fmt.Fprintf(os.Stderr, "done in %v\n", time.Since(start).Round(time.Millisecond))
	}
}

// runSuite executes the benchmark grid, optionally writes the JSON report,
// and optionally diffs it against a baseline (exit 2 on regression).
func runSuite(name string, scale float64, seed uint64, seeds, workers int, algoList, dsList, ksList string, writeJSON bool, baseline string, quiet bool, rtol float64, streamCells bool) {
	cfg := repro.SuiteConfig{
		Scale:      scale,
		Workers:    workers,
		Algorithms: splitList(algoList),
		Datasets:   splitList(dsList),
		Streaming:  streamCells,
	}
	if !quiet {
		cfg.Progress = os.Stderr
	}
	for i := 0; i < seeds; i++ {
		cfg.Seeds = append(cfg.Seeds, seed+uint64(i))
	}
	for _, s := range splitList(ksList) {
		k, err := strconv.Atoi(s)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: bad -ks entry %q: %v\n", s, err)
			exit(2)
		}
		cfg.Ks = append(cfg.Ks, k)
	}

	report, err := repro.RunSuiteParallel(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		exit(1)
	}
	report.Experiment = name
	for _, t := range report.Table() {
		if err := t.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			exit(1)
		}
	}
	if writeJSON {
		path := report.Filename()
		if err := report.WriteFile(path); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			exit(1)
		}
		if !quiet {
			fmt.Fprintf(os.Stderr, "wrote %s (%d cells in %v)\n",
				path, len(report.Cells), time.Duration(report.WallTimeNS).Round(time.Millisecond))
		}
	}
	if baseline != "" {
		prior, err := repro.LoadReport(baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			exit(1)
		}
		diff := repro.DiffReports(prior, report, repro.DiffOptions{RuntimeTolerance: rtol})
		t := diff.Table()
		if err := t.Render(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			exit(1)
		}
		if diff.HasRegressions() {
			fmt.Fprintf(os.Stderr, "experiments: %d regression(s) against %s\n", len(diff.Regressions), baseline)
			exit(2)
		}
	}
}

// stopProfiles flushes any active -cpuprofile/-memprofile collection; exit
// routes through it so profiles survive error exits.
var stopProfiles = func() {}

// exit flushes profiles before terminating - the suite's regression gate
// (exit 2) is exactly when a CPU profile of the run is most wanted.
func exit(code int) {
	stopProfiles()
	os.Exit(code)
}

// startProfiles begins CPU profiling and/or arranges a heap snapshot. The
// returned stop is idempotent: it ends the CPU profile and writes the heap
// profile after a GC, so the snapshot shows live memory.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			if mem != "" {
				f, err := os.Create(mem)
				if err != nil {
					fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
					return
				}
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "experiments: -memprofile:", err)
				}
				f.Close()
			}
		})
	}, nil
}

// splitList parses a comma-separated flag value, trimming blanks.
func splitList(s string) []string {
	if s == "" {
		return nil
	}
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
