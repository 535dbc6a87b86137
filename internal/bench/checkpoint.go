package bench

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/stream"
)

// CheckpointCell is one grid point of the checkpoint-overhead benchmark:
// one algorithm streaming one dataset out-of-core (mmap backend, CGR3
// format, serial decode and scoring) twice - once bare, once writing CPK1
// checkpoints at the default cadence - so the runtime pair isolates what
// crash tolerance costs. The cell is also a hard correctness gate at
// measurement time: the checkpointed run's quality must equal the bare
// run's exactly, and a kill + resume through the checkpoint on disk must
// reproduce the bare run's per-edge assignments bit for bit, or the suite
// fails.
type CheckpointCell struct {
	Dataset   string `json:"dataset"`
	Algorithm string `json:"algorithm"`
	K         int    `json:"k"`
	Seed      uint64 `json:"seed"`
	// Vertices and Edges describe the built graph (after scaling).
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// EveryEdges is the resolved default checkpoint cadence.
	EveryEdges int64 `json:"every_edges"`
	// BaselineNS is the run without checkpointing; CheckpointNS the same
	// run writing checkpoints at the default cadence.
	BaselineNS   int64 `json:"baseline_ns"`
	CheckpointNS int64 `json:"checkpoint_ns"`
	// OverheadPct is (CheckpointNS-BaselineNS)/BaselineNS*100 - derived,
	// hardware-dependent, never diffed against baselines; the two runtimes
	// carry the comparison.
	OverheadPct float64 `json:"overhead_pct"`
	// Written and CheckpointBytes describe the checkpoints the run wrote.
	Written         int   `json:"written"`
	CheckpointBytes int64 `json:"checkpoint_bytes"`
	// ReplicationFactor and RelativeBalance are gated bit-identical across
	// the bare, checkpointed and resumed runs when the cell is measured.
	ReplicationFactor float64 `json:"replication_factor"`
	RelativeBalance   float64 `json:"relative_balance"`
}

// ID names the cell's grid coordinates, the join key for baseline diffs.
func (c CheckpointCell) ID() string {
	return fmt.Sprintf("checkpoint/%s/%s k=%d seed=%d", c.Dataset, c.Algorithm, c.K, c.Seed)
}

// checkpointAlgos covers the heuristic and the restreaming partitioner, the
// two ways a resume rebuilds state: HDRF applies the durable prefix to its
// replica tables, CLUGP loads its base file and recomputes pass 3 over the
// prefix.
var checkpointAlgos = []string{"HDRF", "CLUGP"}

// errBenchKill is the seeded mid-run kill of the resume gate.
var errBenchKill = errors.New("bench: injected kill")

// runCheckpointCells measures the checkpoint grid serially. Each cell runs
// the dataset four times: bare (timed), checkpointing (timed), killed
// mid-run, and resumed from the on-disk checkpoint - the last two feed the
// bit-identity gate, not the clock.
func runCheckpointCells(cfg SuiteConfig) ([]CheckpointCell, error) {
	datasets := cfg.StreamDatasets
	if len(datasets) == 0 {
		datasets = defaultStreamDatasets
	}
	seed := cfg.Seeds[0]
	dir, err := os.MkdirTemp("", "bench-checkpoint-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var cells []CheckpointCell
	for _, name := range datasets {
		ds, err := DatasetByName(name)
		if err != nil {
			return nil, fmt.Errorf("bench: checkpoint cells: %w", err)
		}
		g := ds.Build(cfg.Scale)
		// Checkpoints fire only at BlockLen-aligned commit boundaries
		// strictly inside the stream, and the kill+resume gate needs one
		// before the midpoint kill. A dataset below that floor would
		// measure nothing, so skip it rather than fail the suite.
		if g.NumEdges() < 3*stream.BlockLen {
			suiteLogf(cfg, "checkpoint: %s too small at scale %.2f (%d edges < %d), skipping",
				name, cfg.Scale, g.NumEdges(), 3*stream.BlockLen)
			continue
		}
		suiteLogf(cfg, "checkpoint: built %s (%d vertices, %d edges)", name, g.NumVertices, g.NumEdges())
		path := filepath.Join(dir, name+".cgr")
		if err := writeEncoded(path, g); err != nil {
			return nil, err
		}
		src, err := store.OpenMmap(path)
		if err != nil {
			return nil, err
		}
		for _, alg := range checkpointAlgos {
			cell, err := runCheckpointCell(dir, name, alg, seed, src, g.NumVertices, g.NumEdges())
			if err != nil {
				src.Close()
				return nil, err
			}
			cells = append(cells, cell)
			suiteLogf(cfg, "  checkpoint %-4s %-5s  bare %v  ckpt %v (+%.1f%%, %d written, %d B)",
				name, alg, time.Duration(cell.BaselineNS).Round(time.Millisecond),
				time.Duration(cell.CheckpointNS).Round(time.Millisecond),
				cell.OverheadPct, cell.Written, cell.CheckpointBytes)
		}
		src.Close()
	}
	return cells, nil
}

// runCheckpointCell measures one (dataset, algorithm) cell and enforces its
// correctness gates.
func runCheckpointCell(dir, name, alg string, seed uint64, src *store.MmapSource, nv, ne int) (CheckpointCell, error) {
	fail := func(err error) (CheckpointCell, error) {
		return CheckpointCell{}, fmt.Errorf("bench: checkpoint cell %s/%s: %w", name, alg, err)
	}
	collect := func(dst *[]int32) partition.Emit {
		return func(_ []graph.Edge, a []int32) error {
			*dst = append(*dst, a...)
			return nil
		}
	}

	// Bare run: the timing reference and the per-edge reference.
	p, err := partition.New(alg, seed)
	if err != nil {
		return fail(err)
	}
	ref := make([]int32, 0, ne)
	start := time.Now()
	bare, err := partition.RunOutOfCoreOpts(p, src, streamK, collect(&ref), partition.OutOfCoreOptions{})
	if err != nil {
		return fail(err)
	}
	baselineNS := time.Since(start).Nanoseconds()

	// Checkpointed run at the default cadence.
	ckPath := filepath.Join(dir, name+"-"+alg+".cpk")
	p, err = partition.New(alg, seed)
	if err != nil {
		return fail(err)
	}
	got := make([]int32, 0, ne)
	start = time.Now()
	ck, err := partition.RunOutOfCoreOpts(p, src, streamK, collect(&got), partition.OutOfCoreOptions{
		Checkpoint: &partition.CheckpointOptions{Path: ckPath},
	})
	if err != nil {
		return fail(err)
	}
	checkpointNS := time.Since(start).Nanoseconds()
	if ck.Quality.ReplicationFactor != bare.Quality.ReplicationFactor ||
		ck.Quality.RelativeBalance != bare.Quality.RelativeBalance {
		return fail(fmt.Errorf("checkpointed run diverges from bare (RF %v vs %v, bal %v vs %v)",
			ck.Quality.ReplicationFactor, bare.Quality.ReplicationFactor,
			ck.Quality.RelativeBalance, bare.Quality.RelativeBalance))
	}
	if !assignEqual(got, ref) {
		return fail(errors.New("checkpointed run's assignments diverge from bare"))
	}
	cks := ck.Pipeline.Checkpoints
	if cks.Written == 0 {
		return fail(errors.New("no checkpoint was written; the overhead cell measured nothing"))
	}

	// Kill + resume gate: die past the midpoint, resume from the newest
	// on-disk checkpoint, and require the stitched assignment stream to be
	// bit-identical to the bare run.
	p, err = partition.New(alg, seed)
	if err != nil {
		return fail(err)
	}
	var crashed []int32
	_, err = partition.RunOutOfCoreOpts(p, src, streamK, func(_ []graph.Edge, a []int32) error {
		crashed = append(crashed, a...)
		if len(crashed) >= ne/2 {
			return errBenchKill
		}
		return nil
	}, partition.OutOfCoreOptions{Checkpoint: &partition.CheckpointOptions{Path: ckPath}})
	if !errors.Is(err, errBenchKill) {
		return fail(fmt.Errorf("kill run: got %v, want the injected kill", err))
	}
	c, _, err := store.LoadCheckpoint(ckPath)
	if err != nil {
		return fail(err)
	}
	p, err = partition.New(alg, seed)
	if err != nil {
		return fail(err)
	}
	resumed := make([]int32, 0, ne-int(c.Offset))
	res, err := partition.RunOutOfCoreOpts(p, src, streamK, collect(&resumed), partition.OutOfCoreOptions{
		Checkpoint: &partition.CheckpointOptions{Path: ckPath,
			Resume: &partition.Resume{Record: c, Prefix: partition.PrefixOf(crashed[:c.Offset])}},
	})
	if err != nil {
		return fail(err)
	}
	stitched := append(crashed[:c.Offset:c.Offset], resumed...)
	if !assignEqual(stitched, ref) {
		return fail(fmt.Errorf("kill at %d edges + resume from offset %d is not bit-identical to the bare run", ne/2, c.Offset))
	}
	if res.Quality.ReplicationFactor != bare.Quality.ReplicationFactor ||
		res.Quality.RelativeBalance != bare.Quality.RelativeBalance {
		return fail(errors.New("resumed run's quality diverges from bare"))
	}

	cell := CheckpointCell{
		Dataset: name, Algorithm: alg, K: streamK, Seed: seed,
		Vertices: nv, Edges: ne,
		EveryEdges:        cks.EveryEdges,
		BaselineNS:        baselineNS,
		CheckpointNS:      checkpointNS,
		Written:           cks.Written,
		CheckpointBytes:   cks.Bytes,
		ReplicationFactor: bare.Quality.ReplicationFactor,
		RelativeBalance:   bare.Quality.RelativeBalance,
	}
	if baselineNS > 0 {
		cell.OverheadPct = float64(checkpointNS-baselineNS) / float64(baselineNS) * 100
	}
	return cell, nil
}

// assignEqual reports whether two assignment streams are identical.
func assignEqual(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
