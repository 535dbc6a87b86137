package repro_test

import (
	"fmt"

	"repro"
)

// ExamplePartition is the README quickstart: generate a synthetic web
// graph and partition it with CLUGP. Generators and partitioners are
// seeded and deterministic, so the quality metrics are reproducible.
func ExamplePartition() {
	g := repro.GenerateWeb(repro.WebConfig{N: 5000, OutDegree: 6, Seed: 1})
	res, err := repro.Partition(g, "CLUGP", 16, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("k=%d order=%s\n", res.K, res.Order)
	fmt.Printf("RF=%.3f balance=%.3f\n", res.Quality.ReplicationFactor, res.Quality.RelativeBalance)
	// Output:
	// k=16 order=bfs
	// RF=2.971 balance=1.000
}

// ExampleCLUGP runs CLUGP once and reads its passes from the run's trace:
// the pass-1 clustering, the pass-2 game and the final quality.
func ExampleCLUGP() {
	g := repro.GenerateWeb(repro.WebConfig{N: 5000, OutDegree: 6, Seed: 1})
	p := &repro.CLUGP{Seed: 1}
	res, err := repro.RunPartitioner(p, g, 16, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("clusters=%d\n", p.LastTrace.NumClusters)
	fmt.Printf("game batches=%d\n", p.LastTrace.GameBatches)
	fmt.Printf("RF=%.3f\n", res.Quality.ReplicationFactor)
	// Output:
	// clusters=2583
	// game batches=1
	// RF=2.971
}

// ExampleRunExperiment regenerates one paper artefact - here Figure 6's
// measured partitioner state - at a small scale.
func ExampleRunExperiment() {
	cfg := repro.ExperimentConfig{Scale: 0.02, Ks: []int{4, 64}}
	tables, err := repro.RunExperiment("6", cfg)
	if err != nil {
		panic(err)
	}
	for _, t := range tables {
		fmt.Printf("%s: %s (%d rows)\n", t.ID, t.Title, len(t.Rows))
	}
	// Output:
	// fig6: Partitioner state memory vs #partitions (IT, MB) (2 rows)
}

// ExampleRunSuiteParallel runs a small benchmark grid on a worker pool.
// Quality metrics are bit-identical to a serial run; the shared cache
// computes each stream order at most once per graph.
func ExampleRunSuiteParallel() {
	report, err := repro.RunSuiteParallel(repro.SuiteConfig{
		Algorithms: []string{"Hashing", "CLUGP"},
		Datasets:   []string{"UK"},
		Ks:         []int{4, 16},
		Scale:      0.02,
		Workers:    4,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("cells=%d orders built=%d file=%s\n",
		len(report.Cells), report.StreamOrdersBuilt, report.Filename())
	// Output:
	// cells=4 orders built=2 file=BENCH_suite.json
}
