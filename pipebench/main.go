// Command pipebench is the end-to-end benchmark of the partition -> save ->
// serve pipeline. For one workload it generates a graph from the seed,
// writes it as CGR3, partitions it out-of-core over an mmap source with the
// assignment emitted into a serve.Builder, saves the .cpr result, boots a
// serve.Server from that file with partsrv's loader on a loopback listener,
// and sends HTTP lookups from one keep-alive client in a closed loop.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	bash pipebench/run.sh --workload web-k256 --seed 7 --seconds 15 --trace 0
//
// With --trace 0 it reports the end-to-end metrics, with --trace 1 the
// per-layer metrics of layers.json, timed from outside by wrapping the
// calls into each package. Every correctness check that fails exits
// non-zero without printing a result. The last line of standard output is
// one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/xrand"
)

// workload is one input and traffic mix of the benchmark.
type workload struct {
	name string
	// graph holds the generator parameters; Seed is derived from --seed.
	graph gen.WebConfig
	algo  string
	k     int
	// durable runs every timed pass with checkpoints at the default cadence
	// and the assignment written to a file made durable through EmitMark.
	durable bool
	// reloadEvery > 0 reloads the server at that rate from a second
	// connection while the lookup client runs; 0 is read-only serving.
	reloadEvery time.Duration
}

// The UK and Twitter presets' generator parameters (internal/bench
// Datasets) at scale 40 and 10: 1.2M vertices and 9.6M edges, and 0.3M
// vertices and 5.4M edges.
var (
	ukGraph      = gen.WebConfig{N: 1_200_000, OutDegree: 8, SiteMean: 150, IntraSite: 0.88, CopyFactor: 0.6}
	twitterGraph = gen.WebConfig{N: 300_000, OutDegree: 18, SiteMean: 400, IntraSite: 0.40, CopyFactor: 0.85}
)

// The reasons for each workload are recorded in BENCHMARK.json.
var workloads = []workload{
	{name: "web-k256", graph: ukGraph, algo: "CLUGP", k: 256},
	{name: "social-hdrf-k64", graph: twitterGraph, algo: "HDRF", k: 64},
	{name: "web-k32-writes", graph: ukGraph, algo: "CLUGP", k: 32, durable: true, reloadEvery: time.Second},
}

// seeds are the independent streams derived from the one --seed argument:
// the program under test sees only the generated files and the
// partitioner seed.
type seeds struct {
	graph, part, keys uint64
}

func deriveSeeds(s uint64) seeds {
	return seeds{graph: xrand.Hash64(s ^ 0x67726170), part: xrand.Hash64(s ^ 0x70617274), keys: xrand.Hash64(s ^ 0x6b657973)}
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report collects a run's metrics in the order they are produced, and the
// operations the run attempted and saw fail.
type report struct {
	metrics   map[string]metric
	order     []string
	attempted int
	failed    int
}

func newReport() *report { return &report{metrics: map[string]metric{}} }

func (r *report) set(name string, v float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.order = append(r.order, name)
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

// endToEnd lists the metrics of a --trace 0 run, with their units.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"partition_s", "s"},
	{"peak_rss_mb", "MB"},
	{"replication_factor", "ratio"},
	{"relative_balance", "ratio"},
	{"reload_s", "s"},
	{"lookups_per_s", "1/s"},
	{"lookup_p50_us", "us"},
	{"lookup_p99_us", "us"},
	{"lookup_fail_ratio", "ratio"},
}

// jsonExcluded are end-to-end metrics printed on the report lines and
// saved with the result but kept out of the final JSON object. A metric
// that reads 0 on every healthy run has no median to compare against, so
// failed lookups are carried by the object's "attempted" and "failed"
// fields instead. The p99 lookup latency moved by 40% (interquartile range
// over median) across ten runs on a 2-CPU host, wider than any bound a
// comparison can hold, so it is recorded but not compared.
var jsonExcluded = map[string]bool{"lookup_fail_ratio": true, "lookup_p99_us": true}

func main() {
	var (
		name    = flag.String("workload", "", "workload: web-k256, social-hdrf-k64 or web-k32-writes")
		seed    = flag.Uint64("seed", 1, "workload seed: graph, partitioner seed and lookup keys derive from it")
		seconds = flag.Int("seconds", 15, "measurement budget in seconds (passes and lookups; set-up is extra)")
		trace   = flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "pipebench"), "directory for generated inputs (removed at exit) and result files")
	)
	flag.Parse()
	if err := run(*name, *seed, *seconds, *trace, *out); err != nil {
		fmt.Fprintln(os.Stderr, "pipebench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, trace int, out string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		names := make([]string, len(workloads))
		for i, wl := range workloads {
			names[i] = wl.name
		}
		return fmt.Errorf("unknown --workload %q (want %s)", name, strings.Join(names, ", "))
	}
	if seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", seconds)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	dir, err := os.MkdirTemp(out, fmt.Sprintf("work-%s-%d-", w.name, seed))
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	b := &bench{w: w, seeds: deriveSeeds(seed), dir: dir, budget: time.Duration(seconds) * time.Second}
	defer b.close()
	env := hostEnv(seed)
	rep := newReport()
	var tr *tracer
	if trace == 1 {
		tr = newTracer()
		err = b.runTraced(rep, tr)
	} else {
		err = b.runEndToEnd(rep)
	}
	if err != nil {
		return err
	}
	env["host.calib_s"] = median(b.calib)

	want := endToEnd
	if trace == 1 {
		want = nil
		for _, l := range layers {
			want = append(want, struct{ name, unit string }{l.Name, l.Unit})
		}
	}
	final := map[string]metric{}
	for _, m := range want {
		got, ok := rep.metrics[m.name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.name)
		}
		if got.Unit != m.unit {
			return fmt.Errorf("metric %s measured in %s, declared in %s", m.name, got.Unit, m.unit)
		}
		if !jsonExcluded[m.name] {
			final[m.name] = got
		}
	}
	for _, n := range rep.order {
		if _, ok := final[n]; !ok && !jsonExcluded[n] {
			return fmt.Errorf("metric %s is measured but not declared", n)
		}
	}

	envJSON, err := json.Marshal(env)
	if err != nil {
		return err
	}
	fmt.Printf("env %s\n", envJSON)
	for _, n := range rep.order {
		m := rep.metrics[n]
		fmt.Printf("%-32s %14.6g %s%s\n", n, m.Value, m.Unit, b.notes[n])
	}
	saved := map[string]any{"workload": w.name, "trace": trace, "env": env, "metrics": rep.metrics}
	if tr != nil {
		saved["spans"] = tr.spans
	}
	if err := writeJSONFile(filepath.Join(out, fmt.Sprintf("%s-seed%d-trace%d.json", w.name, seed, trace)), saved); err != nil {
		return err
	}
	line, err := json.Marshal(map[string]any{
		"correct":   true,
		"attempted": rep.attempted,
		"failed":    rep.failed,
		"metrics":   final,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// hostEnv records what a result was measured on.
func hostEnv(seed uint64) map[string]any {
	cpu := "unknown"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		// The lookup phases run with fewer Ps; see onOneP.
		"lookup_gomaxprocs": lookupProcs,
		"go":                runtime.Version(),
		"cpu":               cpu,
		"seed":              seed,
	}
}

func writeJSONFile(path string, v any) error {
	data, err := json.Marshal(v)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// median returns the middle value (the mean of the two middle values for
// an even count); 0 for no values.
func median(xs []float64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
