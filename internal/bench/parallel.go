package bench

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/partition"
	"repro/internal/store"
)

// ParallelCell is one grid point of the parallel-streaming benchmark: one
// algorithm streaming one dataset out-of-core (mmap source, CGR3 file)
// with one decode worker count. Its quality numbers are gated at run time
// against the workers=1 cell of the same (dataset, algorithm) - the
// worker-invariance contract of the parallel hot pass - so a report can
// only ever contain bit-identical quality across a scaling column; what
// varies is wall clock, summarized as speedup and per-worker efficiency.
type ParallelCell struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	// Workers is the decode worker count (1 = the serial reference the
	// scaling column is measured against).
	Workers int    `json:"workers"`
	K       int    `json:"k"`
	Seed    uint64 `json:"seed"`
	// Vertices and Edges describe the built graph (after scaling).
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// PartitionNS is the full out-of-core run at this worker count.
	PartitionNS int64 `json:"partition_ns"`
	// Speedup is the workers=1 cell's runtime divided by this cell's;
	// Efficiency is Speedup/Workers (1.0 = perfect scaling). Both are
	// hardware- and load-dependent and are never diffed against baselines;
	// PartitionNS carries the runtime comparison.
	Speedup    float64 `json:"speedup"`
	Efficiency float64 `json:"efficiency"`
	// ReplicationFactor and RelativeBalance must be bit-identical across
	// the whole workers column (enforced when the cells are measured).
	ReplicationFactor float64 `json:"replication_factor"`
	RelativeBalance   float64 `json:"relative_balance"`
}

// ID names the cell's grid coordinates, the join key for baseline diffs.
func (c ParallelCell) ID() string {
	return fmt.Sprintf("parallel/%s/%s w=%d k=%d seed=%d", c.Dataset, c.Algorithm, c.Workers, c.K, c.Seed)
}

// parallelWorkers is the scaling column; parallelAlgos pairs the cheapest
// decode-bound heuristic with the paper's restreaming partitioner.
var (
	parallelWorkers = []int{1, 2, 4}
	parallelAlgos   = []string{"DBH", "CLUGP"}
)

// runParallelCells measures the parallel-streaming grid serially (each cell
// times wall clock over its own worker fleet). Graphs are encoded once into
// a temp directory as CGR3 and streamed through the mmap source, so the
// decode stage - what the workers parallelize - dominates measurable I/O
// cost.
func runParallelCells(cfg SuiteConfig) ([]ParallelCell, error) {
	datasets := cfg.StreamDatasets
	if len(datasets) == 0 {
		datasets = defaultStreamDatasets
	}
	seed := cfg.Seeds[0]
	dir, err := os.MkdirTemp("", "bench-parallel-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var cells []ParallelCell
	for _, name := range datasets {
		ds, err := DatasetByName(name)
		if err != nil {
			return nil, fmt.Errorf("bench: parallel cells: %w", err)
		}
		g := ds.Build(cfg.Scale)
		suiteLogf(cfg, "parallel: built %s (%d vertices, %d edges)", name, g.NumVertices, g.NumEdges())
		path := filepath.Join(dir, name+".cgr")
		if err := writeEncoded(path, g); err != nil {
			return nil, err
		}
		src, err := store.OpenMmap(path)
		if err != nil {
			return nil, err
		}
		for _, alg := range parallelAlgos {
			var ref ParallelCell
			for _, workers := range parallelWorkers {
				p, err := partition.New(alg, seed)
				if err != nil {
					src.Close()
					return nil, err
				}
				start := time.Now()
				res, err := partition.RunOutOfCoreOpts(p, src, streamK, nil, partition.OutOfCoreOptions{Workers: workers})
				if err != nil {
					src.Close()
					return nil, fmt.Errorf("bench: parallel cell %s/%s w=%d: %w", name, alg, workers, err)
				}
				elapsed := time.Since(start)
				cell := ParallelCell{
					Dataset: name, Algorithm: alg, Workers: workers,
					K: streamK, Seed: seed,
					Vertices: g.NumVertices, Edges: g.NumEdges(),
					PartitionNS:       elapsed.Nanoseconds(),
					ReplicationFactor: res.Quality.ReplicationFactor,
					RelativeBalance:   res.Quality.RelativeBalance,
				}
				if workers == 1 {
					ref = cell
					cell.Speedup, cell.Efficiency = 1, 1
				} else {
					// The worker-invariance gate: parallel quality must equal
					// the serial cell exactly, not within tolerance.
					if cell.ReplicationFactor != ref.ReplicationFactor || cell.RelativeBalance != ref.RelativeBalance {
						src.Close()
						return nil, fmt.Errorf("bench: parallel cell %s/%s w=%d: quality diverges from serial (RF %v vs %v, bal %v vs %v)",
							name, alg, workers, cell.ReplicationFactor, ref.ReplicationFactor, cell.RelativeBalance, ref.RelativeBalance)
					}
					if cell.PartitionNS > 0 {
						cell.Speedup = float64(ref.PartitionNS) / float64(cell.PartitionNS)
						cell.Efficiency = cell.Speedup / float64(workers)
					}
				}
				cells = append(cells, cell)
				suiteLogf(cfg, "  parallel %-4s %-5s w=%d  %v  speedup %.2fx (eff %.2f)",
					name, alg, workers, elapsed.Round(time.Millisecond), cell.Speedup, cell.Efficiency)
			}
		}
		src.Close()
	}
	return cells, nil
}
