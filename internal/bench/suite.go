package bench

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/stream"
)

// SuiteConfig describes one benchmark grid: every algorithm x dataset x
// k x seed cell is one partitioning run. The zero value is the full paper
// grid (six algorithms, five datasets, the k sweep, one seed) at scale 1.0.
type SuiteConfig struct {
	// Algorithms to run (partition.New names). Default: the six of the
	// paper's evaluation in plotting order.
	Algorithms []string
	// Datasets to run on (bench dataset names). Default: all five.
	Datasets []string
	// Ks is the partition-count sweep. Default: 4..256 in powers of two.
	Ks []int
	// Seeds replicates every cell once per seed. Default: {42}.
	Seeds []uint64
	// Scale multiplies dataset sizes (1.0 = default experiment size).
	Scale float64
	// Workers is the size of the worker pool; cells run concurrently on
	// that many goroutines. Default (and any value < 1): GOMAXPROCS.
	// Workers=1 is the serial reference; results are identical (runtimes
	// aside) for every worker count.
	Workers int
	// Streaming additionally measures the out-of-core streaming cells
	// (one per dataset, CGR3 through the mmap source: bytes/edge, decode
	// throughput, streaming CLUGP wall clock), the serve cells and the
	// checkpoint cells after the main grid. The cells time wall clock, so
	// they always run serially regardless of Workers.
	Streaming bool
	// StreamDatasets selects the datasets of the streaming grid. Empty
	// means the default clustered pair (UK, IT).
	StreamDatasets []string
	// ServeDatasets selects the datasets of the placement-service grid
	// (also gated by Streaming). Empty means the default (UK).
	ServeDatasets []string
	// Progress, when non-nil, receives one line per completed cell.
	Progress io.Writer
}

func (c SuiteConfig) withDefaults() SuiteConfig {
	if len(c.Algorithms) == 0 {
		c.Algorithms = append([]string(nil), algos...)
	}
	if len(c.Datasets) == 0 {
		for _, d := range Datasets() {
			c.Datasets = append(c.Datasets, d.Name)
		}
	}
	if len(c.Ks) == 0 {
		c.Ks = []int{4, 8, 16, 32, 64, 128, 256}
	}
	if len(c.Seeds) == 0 {
		c.Seeds = []uint64{42}
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return c
}

// cellJob is one grid point plus its prebuilt graph.
type cellJob struct {
	index     int
	algorithm string
	dataset   string
	g         *graph.Graph
	k         int
	seed      uint64
}

// RunSuite executes the grid serially (one worker). It is the reference
// RunSuiteParallel is measured against: quality metrics are identical for
// any worker count.
func RunSuite(cfg SuiteConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	cfg.Workers = 1
	return RunSuiteParallel(cfg)
}

// RunSuiteParallel executes the algorithm x dataset x k x seed grid on a
// pool of cfg.Workers goroutines. Graphs are built once per dataset and
// shared read-only; stream orders are computed at most once per
// (graph, order, seed) via a shared stream.Cache instead of once per run.
// Cells land in the report in deterministic grid order, and every quality
// metric is bit-identical to the serial run - only the runtime fields vary
// with scheduling.
func RunSuiteParallel(cfg SuiteConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	start := time.Now()

	// Validate the grid up front so workers cannot hit unknown names and
	// no graph or stream order is built for a run that must fail.
	for _, a := range cfg.Algorithms {
		if _, err := partition.New(a, cfg.Seeds[0]); err != nil {
			return nil, fmt.Errorf("bench: suite: %w", err)
		}
	}
	for _, k := range cfg.Ks {
		if k < 1 {
			return nil, fmt.Errorf("bench: suite: k must be >= 1, got %d", k)
		}
	}
	graphs := make(map[string]*graph.Graph, len(cfg.Datasets))
	for _, name := range cfg.Datasets {
		ds, err := DatasetByName(name)
		if err != nil {
			return nil, fmt.Errorf("bench: suite: %w", err)
		}
		g := ds.Build(cfg.Scale)
		graphs[name] = g
		suiteLogf(cfg, "suite: built %s (%d vertices, %d edges)", name, g.NumVertices, g.NumEdges())
	}

	// Grid order: dataset-major, then algorithm, k, seed - the order the
	// paper's figures sweep, and the order cells appear in the report.
	var jobs []cellJob
	for _, ds := range cfg.Datasets {
		for _, alg := range cfg.Algorithms {
			for _, k := range cfg.Ks {
				for _, seed := range cfg.Seeds {
					jobs = append(jobs, cellJob{
						index: len(jobs), algorithm: alg, dataset: ds,
						g: graphs[ds], k: k, seed: seed,
					})
				}
			}
		}
	}

	cache := stream.NewCache()
	cells := make([]Cell, len(jobs))
	errs := make([]error, len(jobs))
	trackAllocs := cfg.Workers == 1
	jobCh := make(chan cellJob)
	var wg sync.WaitGroup
	for w := 0; w < cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobCh {
				cell, err := runCell(job, cache, trackAllocs)
				cells[job.index], errs[job.index] = cell, err
				if err == nil {
					suiteLogf(cfg, "  %-8s %-8s k=%-4d seed=%-4d RF=%.3f bal=%.3f t=%v",
						job.algorithm, job.dataset, job.k, job.seed,
						cell.ReplicationFactor, cell.RelativeBalance,
						time.Duration(cell.RuntimeNS).Round(time.Millisecond))
				}
			}
		}()
	}
	for _, job := range jobs {
		jobCh <- job
	}
	close(jobCh)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("bench: suite cell %s: %w", jobs[i].algorithm+"/"+jobs[i].dataset, err)
		}
	}
	var streamCells []StreamCell
	var serveCells []ServeCell
	var checkpointCells []CheckpointCell
	if cfg.Streaming {
		sc, err := runStreamCells(cfg)
		if err != nil {
			return nil, err
		}
		streamCells = sc
		vc, err := runServeCells(cfg)
		if err != nil {
			return nil, err
		}
		serveCells = vc
		kc, err := runCheckpointCells(cfg)
		if err != nil {
			return nil, err
		}
		checkpointCells = kc
	}
	return &Report{
		Experiment:        "suite",
		GoVersion:         runtime.Version(),
		GOMAXPROCS:        runtime.GOMAXPROCS(0),
		Workers:           cfg.Workers,
		Scale:             cfg.Scale,
		Algorithms:        cfg.Algorithms,
		Datasets:          cfg.Datasets,
		Ks:                cfg.Ks,
		Seeds:             cfg.Seeds,
		WallTimeNS:        time.Since(start).Nanoseconds(),
		StreamOrdersBuilt: cache.Builds(),
		Cells:             cells,
		StreamCells:       streamCells,
		ServeCells:        serveCells,
		CheckpointCells:   checkpointCells,
	}, nil
}

// runCell executes one grid point. Each cell constructs its own partitioner
// (they carry per-run state like CLUGP.LastTrace), so cells share nothing
// but the read-only graph and the stream cache.
//
// trackAllocs captures runtime.MemStats deltas around the run. The deltas
// are only attributable to the cell when no other cell runs concurrently,
// so the suite enables them for serial runs (Workers == 1). To make them
// deterministic - the point of gating on them - the automatic GC is
// disabled for the duration of the cell and the heap is settled with one
// forced collection first: GC pacing varies run to run and perturbs the
// counts by a handful of allocations (incremental map growth, goroutine
// reuse) when a cycle lands mid-cell.
func runCell(job cellJob, cache *stream.Cache, trackAllocs bool) (Cell, error) {
	p, err := partition.New(job.algorithm, job.seed)
	if err != nil {
		return Cell{}, err
	}
	var before runtime.MemStats
	if trackAllocs {
		gcPercent := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(gcPercent)
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	res, err := partition.RunCached(p, job.g, job.k, job.seed, cache)
	if err != nil {
		return Cell{}, err
	}
	cell := Cell{
		Algorithm:         job.algorithm,
		Dataset:           job.dataset,
		K:                 job.k,
		Seed:              job.seed,
		Order:             res.Order.String(),
		Vertices:          job.g.NumVertices,
		Edges:             job.g.NumEdges(),
		ReplicationFactor: res.Quality.ReplicationFactor,
		RelativeBalance:   res.Quality.RelativeBalance,
		RuntimeNS:         res.Runtime.Nanoseconds(),
		StateBytes:        res.StateBytes,
	}
	if trackAllocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		cell.Allocs = int64(after.Mallocs - before.Mallocs)
		cell.AllocBytes = int64(after.TotalAlloc - before.TotalAlloc)
	}
	return cell, nil
}

// suiteMu serializes progress lines from concurrent workers.
var suiteMu sync.Mutex

func suiteLogf(cfg SuiteConfig, format string, args ...any) {
	if cfg.Progress == nil {
		return
	}
	suiteMu.Lock()
	defer suiteMu.Unlock()
	fmt.Fprintf(cfg.Progress, format+"\n", args...)
}
