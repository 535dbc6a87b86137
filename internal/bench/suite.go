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

// RunSuite executes the grid serially (one worker). It is the reference
// RunSuiteParallel is measured against: quality metrics are identical for
// any worker count.
func RunSuite(cfg SuiteConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	cfg.Workers = 1
	return RunSuiteParallel(cfg)
}

// RunSuiteParallel executes the algorithm x dataset x k x seed grid on a
// pool of cfg.Workers goroutines (see grid.run). Graphs are built once per
// dataset and shared read-only; stream orders are computed at most once
// per (graph, order, seed) via a shared stream.Cache instead of once per
// run.
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
	graphs, err := buildGraphs(cfg.Datasets, cfg.Scale, cfg.logf)
	if err != nil {
		return nil, fmt.Errorf("bench: suite: %w", err)
	}
	cache := stream.NewCache()
	cells, err := grid{
		datasets: cfg.Datasets, graphs: graphs,
		algorithms: cfg.Algorithms, ks: cfg.Ks, seeds: cfg.Seeds,
	}.run(cfg.Workers, cache, cfg.logf)
	if err != nil {
		return nil, fmt.Errorf("bench: suite: %w", err)
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

// grid is one algorithm x dataset x k x seed sweep over graphs already
// built, keyed by dataset name.
type grid struct {
	datasets   []string
	graphs     map[string]*graph.Graph
	algorithms []string
	ks         []int
	seeds      []uint64
}

// run executes every cell of the grid on a pool of workers goroutines that
// share cache, and returns the cells in grid order: dataset-major, then
// algorithm, k, seed - the order the paper's figures sweep. Each cell
// constructs its own partitioner (they carry per-run state like
// CLUGP.LastTrace), so cells share nothing but the read-only graphs and the
// cache, and every quality metric is bit-identical for any worker count;
// only the runtime fields vary with scheduling. logf receives one line per
// completed cell and must be safe for concurrent use.
func (gr grid) run(workers int, cache *stream.Cache, logf func(string, ...any)) ([]Cell, error) {
	var cells []Cell
	for _, ds := range gr.datasets {
		for _, alg := range gr.algorithms {
			for _, k := range gr.ks {
				for _, seed := range gr.seeds {
					cells = append(cells, Cell{Algorithm: alg, Dataset: ds, K: k, Seed: seed})
				}
			}
		}
	}
	errs := make([]error, len(cells))
	trackAllocs := workers == 1
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				c := &cells[i]
				errs[i] = runCell(c, gr.graphs[c.Dataset], cache, trackAllocs)
				if errs[i] == nil {
					logf("  %-8s %-8s k=%-4d seed=%-4d RF=%.3f bal=%.3f t=%v",
						c.Algorithm, c.Dataset, c.K, c.Seed, c.ReplicationFactor, c.RelativeBalance,
						time.Duration(c.RuntimeNS).Round(time.Millisecond))
				}
			}
		}()
	}
	for i := range cells {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cell %s: %w", cells[i].ID(), err)
		}
	}
	return cells, nil
}

// runCell runs the grid point whose coordinates c holds on g and fills in
// the rest of c.
//
// trackAllocs captures runtime.MemStats deltas around the run. The deltas
// are only attributable to the cell when no other cell runs concurrently,
// so the grid enables them for serial runs (one worker). To make them
// deterministic - the point of gating on them - the automatic GC is
// disabled for the duration of the cell and the heap is settled with one
// forced collection first: GC pacing varies run to run and perturbs the
// counts by a handful of allocations (incremental map growth, goroutine
// reuse) when a cycle lands mid-cell. The runtime of a serial cell is
// therefore measured with the GC paused too.
func runCell(c *Cell, g *graph.Graph, cache *stream.Cache, trackAllocs bool) error {
	var before runtime.MemStats
	if trackAllocs {
		gcPercent := debug.SetGCPercent(-1)
		defer debug.SetGCPercent(gcPercent)
		runtime.GC()
		runtime.ReadMemStats(&before)
	}
	res, err := runNamed(c.Algorithm, g, c.K, c.Seed, cache)
	if err != nil {
		return err
	}
	c.Order = res.Order.String()
	c.Vertices = g.NumVertices
	c.Edges = g.NumEdges()
	c.ReplicationFactor = res.Quality.ReplicationFactor
	c.RelativeBalance = res.Quality.RelativeBalance
	c.RuntimeNS = res.Runtime.Nanoseconds()
	c.StateBytes = res.StateBytes
	if trackAllocs {
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		c.Allocs = int64(after.Mallocs - before.Mallocs)
		c.AllocBytes = int64(after.TotalAlloc - before.TotalAlloc)
	}
	return nil
}

// suiteMu serializes progress lines from concurrent workers.
var suiteMu sync.Mutex

func (c SuiteConfig) logf(format string, args ...any) {
	if c.Progress == nil {
		return
	}
	suiteMu.Lock()
	defer suiteMu.Unlock()
	fmt.Fprintf(c.Progress, format+"\n", args...)
}
