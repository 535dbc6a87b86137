package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// Cell is one grid point of a suite run: one algorithm on one dataset at
// one partition count and seed, with the quality and cost numbers the
// paper's figures are built from.
type Cell struct {
	Algorithm string `json:"algorithm"`
	Dataset   string `json:"dataset"`
	K         int    `json:"k"`
	Seed      uint64 `json:"seed"`
	// Order is the stream order the algorithm ran under (its preference).
	Order string `json:"order"`
	// Vertices and Edges describe the built graph (after scaling).
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// ReplicationFactor and RelativeBalance are the Section II-B quality
	// metrics; both are deterministic given (algorithm, dataset, k, seed).
	ReplicationFactor float64 `json:"replication_factor"`
	RelativeBalance   float64 `json:"relative_balance"`
	// RuntimeNS is the partitioning wall time. Unlike the quality metrics
	// it varies run to run and across hardware.
	RuntimeNS int64 `json:"runtime_ns"`
	// StateBytes is the algorithm-state memory model (Figure 6).
	StateBytes int64 `json:"state_bytes"`
	// Allocs and AllocBytes are the heap allocations (count and bytes)
	// performed while running the cell, measured as runtime.MemStats deltas
	// around the run. With a serial suite (workers=1) they are deterministic
	// functions of the code - unlike wall time - so Diff gates on them
	// strictly: any growth is a regression. Zero means "not recorded"
	// (reports from before the field existed, or parallel runs, whose
	// deltas interleave other workers' allocations).
	Allocs     int64 `json:"allocs,omitempty"`
	AllocBytes int64 `json:"alloc_bytes,omitempty"`
}

// ID names the cell's grid coordinates (stable across runs; runtime and
// quality excluded), the join key for baseline diffs.
func (c Cell) ID() string {
	return fmt.Sprintf("%s/%s k=%d seed=%d", c.Algorithm, c.Dataset, c.K, c.Seed)
}

// Report is a machine-readable suite result, serialized as
// BENCH_<experiment>.json so every future change has a perf trajectory to
// diff against. Quality fields are deterministic; runtime fields carry the
// run metadata needed to interpret them (go version, GOMAXPROCS, workers).
type Report struct {
	// Experiment names the run; the canonical full grid is "suite".
	Experiment string `json:"experiment"`
	// GoVersion and GOMAXPROCS identify the toolchain and hardware budget
	// the runtime numbers were measured under.
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Workers is the suite worker-pool size used (1 = serial).
	Workers int `json:"workers"`
	// Scale, Algorithms, Datasets, Ks and Seeds reproduce the grid.
	Scale      float64  `json:"scale"`
	Algorithms []string `json:"algorithms"`
	Datasets   []string `json:"datasets"`
	Ks         []int    `json:"ks"`
	Seeds      []uint64 `json:"seeds"`
	// WallTimeNS is end-to-end suite time (graph building included).
	WallTimeNS int64 `json:"wall_time_ns"`
	// StreamOrdersBuilt counts distinct stream orderings materialized by
	// the shared cache - at most one per (graph, order, seed) key (seed
	// only distinguishes Random), however many cells consumed them.
	StreamOrdersBuilt int64 `json:"stream_orders_built"`
	// Cells holds one entry per grid point, in deterministic
	// dataset-major, algorithm, k, seed order.
	Cells []Cell `json:"cells"`
	// StreamCells holds the out-of-core streaming cells (one per dataset:
	// CGR3 through the mmap source), when the suite ran with Streaming
	// enabled.
	StreamCells []StreamCell `json:"stream_cells,omitempty"`
	// ParallelCells holds the parallel-streaming scaling grid (dataset x
	// algorithm x decode workers), when the suite ran with Streaming
	// enabled. Quality is gated against the workers=1 cell at measurement
	// time, so the column is bit-identical by construction.
	ParallelCells []ParallelCell `json:"parallel_cells,omitempty"`
	// ServeCells holds the placement-service grid (dataset x client
	// count), when the suite ran with Streaming enabled.
	// The single-client cells' allocs/op is gated to exactly zero at
	// measurement time.
	ServeCells []ServeCell `json:"serve_cells,omitempty"`
	// CheckpointCells holds the checkpoint-overhead grid (dataset x
	// algorithm, bare vs default-cadence checkpointing), when the suite ran
	// with Streaming enabled. Quality and kill+resume bit-identity are
	// gated at measurement time.
	CheckpointCells []CheckpointCell `json:"checkpoint_cells,omitempty"`
}

// Filename is the canonical on-disk name for the report.
func (r *Report) Filename() string {
	return fmt.Sprintf("BENCH_%s.json", r.Experiment)
}

// hasAllocs reports whether the report carries allocation data (any cell
// with a non-zero count; reports predating the field decode to all-zero).
func (r *Report) hasAllocs() bool {
	for i := range r.Cells {
		if r.Cells[i].Allocs != 0 {
			return true
		}
	}
	return len(r.Cells) == 0
}

// WriteJSON serializes the report (indented, trailing newline).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteFile writes the report to path (conventionally r.Filename()).
func (r *Report) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ReadReport parses a report written by WriteJSON.
func ReadReport(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("parsing report: %w", err)
	}
	return &r, nil
}

// LoadReport reads a report file written by WriteFile.
func LoadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	r, err := ReadReport(f)
	if err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return r, nil
}

// Table renders the report as one human-readable table per dataset.
func (r *Report) Table() []Table {
	byDataset := map[string][]Cell{}
	for _, c := range r.Cells {
		byDataset[c.Dataset] = append(byDataset[c.Dataset], c)
	}
	var tables []Table
	for _, ds := range r.Datasets {
		cells := byDataset[ds]
		if len(cells) == 0 {
			continue
		}
		t := Table{
			ID:     fmt.Sprintf("%s-%s", r.Experiment, ds),
			Title:  fmt.Sprintf("Suite results (%s, scale %.2f)", ds, r.Scale),
			Header: []string{"algorithm", "k", "seed", "RF", "balance", "runtime(ms)", "state(MB)", "allocs"},
			Note: fmt.Sprintf("%s, GOMAXPROCS=%d, %d workers, %d stream orders built",
				r.GoVersion, r.GOMAXPROCS, r.Workers, r.StreamOrdersBuilt),
		}
		for _, c := range cells {
			allocs := "-"
			if c.Allocs != 0 {
				allocs = fmt.Sprintf("%d", c.Allocs)
			}
			t.AddRow(c.Algorithm, fmt.Sprintf("%d", c.K), fmt.Sprintf("%d", c.Seed),
				f3(c.ReplicationFactor), f3(c.RelativeBalance),
				fmt.Sprintf("%.1f", float64(c.RuntimeNS)/1e6), mb(c.StateBytes), allocs)
		}
		tables = append(tables, t)
	}
	if len(r.StreamCells) > 0 {
		t := Table{
			ID:     fmt.Sprintf("%s-streaming", r.Experiment),
			Title:  fmt.Sprintf("Out-of-core streaming (scale %.2f, mmap/CGR3, CLUGP k=%d)", r.Scale, streamK),
			Header: []string{"dataset", "B/edge", "decode(ms)", "Medges/s", "clugp(ms)", "RF"},
			Note:   "decode = one warm full pass (stream.Drain); clugp = three restreaming passes, assignment discarded as emitted",
		}
		for _, c := range r.StreamCells {
			t.AddRow(c.Dataset,
				fmt.Sprintf("%.2f", c.BytesPerEdge),
				fmt.Sprintf("%.1f", float64(c.DecodeNS)/1e6),
				fmt.Sprintf("%.1f", c.DecodeMEdgesPerSec),
				fmt.Sprintf("%.1f", float64(c.PartitionNS)/1e6),
				f3(c.ReplicationFactor))
		}
		tables = append(tables, t)
	}
	if len(r.ServeCells) > 0 {
		t := Table{
			ID:     fmt.Sprintf("%s-serve", r.Experiment),
			Title:  fmt.Sprintf("Placement service (scale %.2f, CLUGP k=%d)", r.Scale, serveK),
			Header: []string{"dataset", "clients", "Mlookups/s", "p50(ns)", "p99(ns)", "allocs/op"},
			Note:   "mixed primary/replica-set/edge-routing workload; single-client allocs/op gated to 0 at measurement",
		}
		for _, c := range r.ServeCells {
			t.AddRow(c.Dataset, fmt.Sprintf("%d", c.Clients),
				fmt.Sprintf("%.2f", c.LookupsPerSec/1e6),
				fmt.Sprintf("%d", c.P50NS),
				fmt.Sprintf("%d", c.P99NS),
				fmt.Sprintf("%.2f", c.AllocsPerOp))
		}
		tables = append(tables, t)
	}
	if len(r.ParallelCells) > 0 {
		t := Table{
			ID:     fmt.Sprintf("%s-parallel", r.Experiment),
			Title:  fmt.Sprintf("Parallel streaming scaling (scale %.2f, mmap/CGR3, k=%d)", r.Scale, streamK),
			Header: []string{"dataset", "algorithm", "workers", "runtime(ms)", "speedup", "efficiency", "RF"},
			Note:   "quality is gated bit-identical to workers=1 when measured; efficiency = speedup/workers",
		}
		for _, c := range r.ParallelCells {
			t.AddRow(c.Dataset, c.Algorithm, fmt.Sprintf("%d", c.Workers),
				fmt.Sprintf("%.1f", float64(c.PartitionNS)/1e6),
				fmt.Sprintf("%.2fx", c.Speedup),
				fmt.Sprintf("%.2f", c.Efficiency),
				f3(c.ReplicationFactor))
		}
		tables = append(tables, t)
	}
	if len(r.CheckpointCells) > 0 {
		t := Table{
			ID:     fmt.Sprintf("%s-checkpoint", r.Experiment),
			Title:  fmt.Sprintf("Checkpoint overhead (scale %.2f, mmap/CGR3, k=%d, default cadence)", r.Scale, streamK),
			Header: []string{"dataset", "algorithm", "bare(ms)", "ckpt(ms)", "overhead", "written", "bytes", "RF"},
			Note:   "quality and kill+resume bit-identity are gated when measured; overhead = (ckpt-bare)/bare",
		}
		for _, c := range r.CheckpointCells {
			t.AddRow(c.Dataset, c.Algorithm,
				fmt.Sprintf("%.1f", float64(c.BaselineNS)/1e6),
				fmt.Sprintf("%.1f", float64(c.CheckpointNS)/1e6),
				fmt.Sprintf("%+.1f%%", c.OverheadPct),
				fmt.Sprintf("%d", c.Written),
				fmt.Sprintf("%d", c.CheckpointBytes),
				f3(c.ReplicationFactor))
		}
		tables = append(tables, t)
	}
	return tables
}

// DiffOptions set the regression thresholds for Diff.
type DiffOptions struct {
	// QualityTolerance is the relative worsening of replication factor or
	// balance tolerated before a cell is flagged. Quality is deterministic
	// for a fixed grid, so the default is essentially exact (1e-9, noise
	// floor only).
	QualityTolerance float64
	// RuntimeTolerance is the relative runtime growth tolerated before a
	// cell is flagged. Runtime is noisy and hardware-dependent; the
	// default 0.5 flags only >50% slowdowns.
	RuntimeTolerance float64
	// RuntimeFloorNS ignores runtime changes whose absolute difference is
	// smaller than this, whatever the relative change - sub-floor cells
	// are scheduler noise. Default 50ms; set negative to disable.
	RuntimeFloorNS int64
	// AllocTolerance is the relative growth of a cell's allocation count or
	// bytes tolerated before it is flagged. Allocations measured by a
	// serial suite are deterministic, so the default is essentially exact
	// (1e-9, float noise floor only): any growth is a regression.
	AllocTolerance float64
	// AllocFloor and AllocBytesFloor ignore allocation changes whose
	// absolute difference is below them. The measured code is deterministic
	// but the Go runtime occasionally contributes a stray allocation or two
	// (goroutine bookkeeping) to a cell's delta; a real per-edge or
	// per-batch regression shows up as hundreds. Defaults 8 allocations and
	// 4096 bytes; set negative to disable.
	AllocFloor      int64
	AllocBytesFloor int64
}

func (o DiffOptions) withDefaults() DiffOptions {
	if o.QualityTolerance == 0 {
		o.QualityTolerance = 1e-9
	}
	if o.RuntimeTolerance == 0 {
		o.RuntimeTolerance = 0.5
	}
	if o.RuntimeFloorNS == 0 {
		o.RuntimeFloorNS = 50 * 1e6
	}
	if o.AllocTolerance == 0 {
		o.AllocTolerance = 1e-9
	}
	if o.AllocFloor == 0 {
		o.AllocFloor = 8
	}
	if o.AllocBytesFloor == 0 {
		o.AllocBytesFloor = 4096
	}
	return o
}

// Delta is one metric change on one cell between two reports.
type Delta struct {
	Cell     string  `json:"cell"`
	Metric   string  `json:"metric"`
	Baseline float64 `json:"baseline"`
	Current  float64 `json:"current"`
	// Relative is (current-baseline)/baseline; positive is worse for every
	// diffed metric (RF, balance and runtime all want to be small).
	Relative float64 `json:"relative"`
}

// DiffResult compares a current report against a baseline.
type DiffResult struct {
	// Matched counts cells present in both reports (joined by Cell.ID).
	Matched int `json:"matched"`
	// Incomparable lists matched cells whose underlying graphs differ
	// (vertex or edge counts disagree - a scale or generator change).
	// Their metrics describe different inputs and are not classified.
	Incomparable []string `json:"incomparable,omitempty"`
	// RuntimeSkipped is non-empty when runtime comparison was skipped
	// because the reports were measured under different conditions
	// (worker count or GOMAXPROCS); quality is still compared.
	RuntimeSkipped string `json:"runtime_skipped,omitempty"`
	// AllocSkipped is non-empty when allocation comparison was skipped:
	// either report ran with parallel workers (concurrent cells interleave
	// their MemStats deltas, so counts are not attributable) or the
	// baseline predates allocation recording.
	AllocSkipped string `json:"alloc_skipped,omitempty"`
	// StreamSkipped is non-empty when the streaming grid was not compared
	// (either report lacks stream cells).
	StreamSkipped string `json:"stream_skipped,omitempty"`
	// ParallelSkipped is non-empty when the parallel-streaming grid was not
	// compared (either report lacks parallel cells).
	ParallelSkipped string `json:"parallel_skipped,omitempty"`
	// ServeSkipped is non-empty when the placement-service grid was not
	// compared (either report lacks serve cells).
	ServeSkipped string `json:"serve_skipped,omitempty"`
	// CheckpointSkipped is non-empty when the checkpoint-overhead grid was
	// not compared (either report lacks checkpoint cells).
	CheckpointSkipped string `json:"checkpoint_skipped,omitempty"`
	// OnlyBaseline and OnlyCurrent list cells without a counterpart.
	OnlyBaseline []string `json:"only_baseline,omitempty"`
	OnlyCurrent  []string `json:"only_current,omitempty"`
	// Regressions are metric worsenings beyond tolerance, worst first.
	Regressions []Delta `json:"regressions,omitempty"`
	// Improvements are metric gains beyond the same tolerance, best first.
	Improvements []Delta `json:"improvements,omitempty"`
}

// HasRegressions reports whether any metric worsened beyond tolerance.
func (d *DiffResult) HasRegressions() bool { return len(d.Regressions) > 0 }

// Diff joins current against baseline cell-by-cell and classifies every
// metric change. Quality metrics use QualityTolerance, runtime uses
// RuntimeTolerance.
func Diff(baseline, current *Report, opts DiffOptions) *DiffResult {
	opts = opts.withDefaults()
	base := make(map[string]Cell, len(baseline.Cells))
	for _, c := range baseline.Cells {
		base[c.ID()] = c
	}
	d := &DiffResult{}
	// Runtimes measured under different scheduling conditions are not
	// comparable: a 4-worker run oversubscribing the cores a serial
	// baseline had to itself inflates every cell's wall time without any
	// code being slower. Quality is scheduling-independent and is always
	// compared.
	switch {
	case baseline.Workers != current.Workers:
		d.RuntimeSkipped = fmt.Sprintf("workers differ (baseline %d, current %d)", baseline.Workers, current.Workers)
	case baseline.GOMAXPROCS != current.GOMAXPROCS:
		d.RuntimeSkipped = fmt.Sprintf("GOMAXPROCS differs (baseline %d, current %d)", baseline.GOMAXPROCS, current.GOMAXPROCS)
	}
	// Allocation counts are only attributable to a cell when cells ran one
	// at a time; a parallel run interleaves every worker's allocations into
	// each delta. They are also only deterministic at GOMAXPROCS=1: above
	// it, the partitioner-internal worker pools (the cluster game) allocate
	// per-worker scratch lazily on whichever workers the scheduler happens
	// to hand batches, so even two identical runs disagree.
	switch {
	case baseline.Workers != 1 || current.Workers != 1:
		d.AllocSkipped = fmt.Sprintf("allocation deltas need a serial suite (workers: baseline %d, current %d)", baseline.Workers, current.Workers)
	case baseline.GOMAXPROCS != 1 || current.GOMAXPROCS != 1:
		d.AllocSkipped = fmt.Sprintf("allocation deltas need GOMAXPROCS=1 (baseline %d, current %d): scheduler-dependent per-worker scratch otherwise", baseline.GOMAXPROCS, current.GOMAXPROCS)
	case !baseline.hasAllocs():
		d.AllocSkipped = "baseline has no allocation data"
	case !current.hasAllocs():
		d.AllocSkipped = "current report has no allocation data"
	}
	seen := make(map[string]bool, len(current.Cells))
	for _, cur := range current.Cells {
		id := cur.ID()
		seen[id] = true
		old, ok := base[id]
		if !ok {
			d.OnlyCurrent = append(d.OnlyCurrent, id)
			continue
		}
		d.Matched++
		// Same grid coordinates on a different graph (the reports were run
		// at different -scale, or a generator changed): the metrics
		// describe different inputs, so classifying them as regressions
		// would be noise. Surface the mismatch instead.
		if old.Vertices != cur.Vertices || old.Edges != cur.Edges {
			d.Incomparable = append(d.Incomparable, id)
			continue
		}
		d.classify(id, "replication_factor", old.ReplicationFactor, cur.ReplicationFactor, opts.QualityTolerance)
		d.classify(id, "relative_balance", old.RelativeBalance, cur.RelativeBalance, opts.QualityTolerance)
		if d.RuntimeSkipped == "" && math.Abs(float64(cur.RuntimeNS-old.RuntimeNS)) >= float64(opts.RuntimeFloorNS) {
			d.classify(id, "runtime", float64(old.RuntimeNS), float64(cur.RuntimeNS), opts.RuntimeTolerance)
		}
		if d.AllocSkipped == "" {
			if abs64(cur.Allocs-old.Allocs) >= opts.AllocFloor {
				d.classify(id, "allocs", float64(old.Allocs), float64(cur.Allocs), opts.AllocTolerance)
			}
			if abs64(cur.AllocBytes-old.AllocBytes) >= opts.AllocBytesFloor {
				d.classify(id, "alloc_bytes", float64(old.AllocBytes), float64(cur.AllocBytes), opts.AllocTolerance)
			}
		}
	}
	for _, c := range baseline.Cells {
		if !seen[c.ID()] {
			d.OnlyBaseline = append(d.OnlyBaseline, c.ID())
		}
	}
	d.diffStreamCells(baseline, current, opts)
	d.diffParallelCells(baseline, current, opts)
	d.diffServeCells(baseline, current, opts)
	d.diffCheckpointCells(baseline, current, opts)
	sort.Slice(d.Regressions, func(i, j int) bool { return d.Regressions[i].Relative > d.Regressions[j].Relative })
	sort.Slice(d.Improvements, func(i, j int) bool { return d.Improvements[i].Relative < d.Improvements[j].Relative })
	return d
}

// diffStreamCells joins the streaming grids. Bytes/edge is a deterministic
// function of the encoder and is gated exactly like a quality metric - any
// growth is a compression regression; decode and partition wall clocks use
// the runtime tolerance (and are skipped under the same scheduling
// conditions as cell runtimes).
func (d *DiffResult) diffStreamCells(baseline, current *Report, opts DiffOptions) {
	switch {
	case len(baseline.StreamCells) == 0 && len(current.StreamCells) == 0:
		return
	case len(baseline.StreamCells) == 0:
		d.StreamSkipped = "baseline has no stream cells"
		return
	case len(current.StreamCells) == 0:
		d.StreamSkipped = "current report has no stream cells"
		return
	}
	base := make(map[string]StreamCell, len(baseline.StreamCells))
	for _, c := range baseline.StreamCells {
		base[c.ID()] = c
	}
	seen := make(map[string]bool, len(current.StreamCells))
	for _, cur := range current.StreamCells {
		id := cur.ID()
		seen[id] = true
		old, ok := base[id]
		if !ok {
			d.OnlyCurrent = append(d.OnlyCurrent, id)
			continue
		}
		d.Matched++
		if old.Vertices != cur.Vertices || old.Edges != cur.Edges {
			d.Incomparable = append(d.Incomparable, id)
			continue
		}
		d.classify(id, "bytes_per_edge", old.BytesPerEdge, cur.BytesPerEdge, opts.QualityTolerance)
		d.classify(id, "replication_factor", old.ReplicationFactor, cur.ReplicationFactor, opts.QualityTolerance)
		d.classify(id, "relative_balance", old.RelativeBalance, cur.RelativeBalance, opts.QualityTolerance)
		if d.RuntimeSkipped == "" {
			if abs64(cur.DecodeNS-old.DecodeNS) >= opts.RuntimeFloorNS {
				d.classify(id, "decode", float64(old.DecodeNS), float64(cur.DecodeNS), opts.RuntimeTolerance)
			}
			if abs64(cur.PartitionNS-old.PartitionNS) >= opts.RuntimeFloorNS {
				d.classify(id, "partition", float64(old.PartitionNS), float64(cur.PartitionNS), opts.RuntimeTolerance)
			}
		}
	}
	for _, c := range baseline.StreamCells {
		if !seen[c.ID()] {
			d.OnlyBaseline = append(d.OnlyBaseline, c.ID())
		}
	}
}

// diffParallelCells joins the parallel-streaming scaling grids. Quality is
// gated exactly (it is bit-identical to the serial pass by construction, so
// any drift is a determinism break, not noise); the per-cell wall clock
// uses the runtime tolerance. Speedup and efficiency are derived from the
// runtimes and hardware-dependent, so they are never diffed themselves.
func (d *DiffResult) diffParallelCells(baseline, current *Report, opts DiffOptions) {
	switch {
	case len(baseline.ParallelCells) == 0 && len(current.ParallelCells) == 0:
		return
	case len(baseline.ParallelCells) == 0:
		d.ParallelSkipped = "baseline has no parallel cells"
		return
	case len(current.ParallelCells) == 0:
		d.ParallelSkipped = "current report has no parallel cells"
		return
	}
	base := make(map[string]ParallelCell, len(baseline.ParallelCells))
	for _, c := range baseline.ParallelCells {
		base[c.ID()] = c
	}
	seen := make(map[string]bool, len(current.ParallelCells))
	for _, cur := range current.ParallelCells {
		id := cur.ID()
		seen[id] = true
		old, ok := base[id]
		if !ok {
			d.OnlyCurrent = append(d.OnlyCurrent, id)
			continue
		}
		d.Matched++
		if old.Vertices != cur.Vertices || old.Edges != cur.Edges {
			d.Incomparable = append(d.Incomparable, id)
			continue
		}
		d.classify(id, "replication_factor", old.ReplicationFactor, cur.ReplicationFactor, opts.QualityTolerance)
		d.classify(id, "relative_balance", old.RelativeBalance, cur.RelativeBalance, opts.QualityTolerance)
		if d.RuntimeSkipped == "" && abs64(cur.PartitionNS-old.PartitionNS) >= opts.RuntimeFloorNS {
			d.classify(id, "partition", float64(old.PartitionNS), float64(cur.PartitionNS), opts.RuntimeTolerance)
		}
	}
	for _, c := range baseline.ParallelCells {
		if !seen[c.ID()] {
			d.OnlyBaseline = append(d.OnlyBaseline, c.ID())
		}
	}
}

// diffServeCells joins the placement-service grids. Allocations per query
// are a deterministic function of the query path (the single-client cell is
// additionally hard-gated to zero when measured), so they are compared
// exactly; the latency percentiles use the runtime tolerance without the
// absolute floor - they are per-query nanoseconds, far below RuntimeFloorNS
// by construction. Throughput is the inverse of latency under this workload
// and is never diffed itself.
func (d *DiffResult) diffServeCells(baseline, current *Report, opts DiffOptions) {
	switch {
	case len(baseline.ServeCells) == 0 && len(current.ServeCells) == 0:
		return
	case len(baseline.ServeCells) == 0:
		d.ServeSkipped = "baseline has no serve cells"
		return
	case len(current.ServeCells) == 0:
		d.ServeSkipped = "current report has no serve cells"
		return
	}
	base := make(map[string]ServeCell, len(baseline.ServeCells))
	for _, c := range baseline.ServeCells {
		base[c.ID()] = c
	}
	seen := make(map[string]bool, len(current.ServeCells))
	for _, cur := range current.ServeCells {
		id := cur.ID()
		seen[id] = true
		old, ok := base[id]
		if !ok {
			d.OnlyCurrent = append(d.OnlyCurrent, id)
			continue
		}
		d.Matched++
		if old.Vertices != cur.Vertices || old.Edges != cur.Edges {
			d.Incomparable = append(d.Incomparable, id)
			continue
		}
		d.classify(id, "allocs_per_op", old.AllocsPerOp, cur.AllocsPerOp, opts.QualityTolerance)
		if d.RuntimeSkipped == "" {
			d.classify(id, "p50_latency", float64(old.P50NS), float64(cur.P50NS), opts.RuntimeTolerance)
			d.classify(id, "p99_latency", float64(old.P99NS), float64(cur.P99NS), opts.RuntimeTolerance)
		}
	}
	for _, c := range baseline.ServeCells {
		if !seen[c.ID()] {
			d.OnlyBaseline = append(d.OnlyBaseline, c.ID())
		}
	}
}

// diffCheckpointCells joins the checkpoint-overhead grids: quality is gated
// exactly (the checkpointed run is bit-identical to the bare one by
// construction), both wall clocks use the runtime tolerance - a regression
// in checkpoint_ns with a flat baseline_ns means the checkpoint write path
// itself got slower - and the derived overhead percentage, the written
// count and the checkpoint sizes are informational, never diffed (cadence
// and state-format changes move them legitimately).
func (d *DiffResult) diffCheckpointCells(baseline, current *Report, opts DiffOptions) {
	switch {
	case len(baseline.CheckpointCells) == 0 && len(current.CheckpointCells) == 0:
		return
	case len(baseline.CheckpointCells) == 0:
		d.CheckpointSkipped = "baseline has no checkpoint cells"
		return
	case len(current.CheckpointCells) == 0:
		d.CheckpointSkipped = "current report has no checkpoint cells"
		return
	}
	base := make(map[string]CheckpointCell, len(baseline.CheckpointCells))
	for _, c := range baseline.CheckpointCells {
		base[c.ID()] = c
	}
	seen := make(map[string]bool, len(current.CheckpointCells))
	for _, cur := range current.CheckpointCells {
		id := cur.ID()
		seen[id] = true
		old, ok := base[id]
		if !ok {
			d.OnlyCurrent = append(d.OnlyCurrent, id)
			continue
		}
		d.Matched++
		if old.Vertices != cur.Vertices || old.Edges != cur.Edges {
			d.Incomparable = append(d.Incomparable, id)
			continue
		}
		d.classify(id, "replication_factor", old.ReplicationFactor, cur.ReplicationFactor, opts.QualityTolerance)
		d.classify(id, "relative_balance", old.RelativeBalance, cur.RelativeBalance, opts.QualityTolerance)
		if d.RuntimeSkipped == "" {
			if abs64(cur.BaselineNS-old.BaselineNS) >= opts.RuntimeFloorNS {
				d.classify(id, "baseline", float64(old.BaselineNS), float64(cur.BaselineNS), opts.RuntimeTolerance)
			}
			if abs64(cur.CheckpointNS-old.CheckpointNS) >= opts.RuntimeFloorNS {
				d.classify(id, "checkpoint", float64(old.CheckpointNS), float64(cur.CheckpointNS), opts.RuntimeTolerance)
			}
		}
	}
	for _, c := range baseline.CheckpointCells {
		if !seen[c.ID()] {
			d.OnlyBaseline = append(d.OnlyBaseline, c.ID())
		}
	}
}

func abs64(x int64) int64 {
	if x < 0 {
		return -x
	}
	return x
}

func (d *DiffResult) classify(id, metric string, old, cur, tol float64) {
	if old == cur {
		return
	}
	var rel float64
	switch {
	case old != 0:
		rel = (cur - old) / math.Abs(old)
	case cur > 0:
		rel = math.Inf(1)
	default:
		rel = math.Inf(-1)
	}
	delta := Delta{Cell: id, Metric: metric, Baseline: old, Current: cur, Relative: rel}
	switch {
	case rel > tol:
		d.Regressions = append(d.Regressions, delta)
	case rel < -tol:
		d.Improvements = append(d.Improvements, delta)
	}
}

// Table renders the diff as a table: regressions first, then improvements.
func (d *DiffResult) Table() Table {
	t := Table{
		ID:     "baseline-diff",
		Title:  fmt.Sprintf("Baseline comparison (%d cells matched)", d.Matched),
		Header: []string{"status", "cell", "metric", "baseline", "current", "change"},
	}
	row := func(status string, dl Delta) {
		fmtVal := func(v float64) string {
			switch dl.Metric {
			case "runtime", "decode", "partition":
				return fmt.Sprintf("%.1fms", v/1e6)
			case "p50_latency", "p99_latency":
				return fmt.Sprintf("%.0fns", v)
			case "allocs", "alloc_bytes":
				return fmt.Sprintf("%.0f", v)
			}
			return f3(v)
		}
		t.AddRow(status, dl.Cell, dl.Metric, fmtVal(dl.Baseline), fmtVal(dl.Current),
			fmt.Sprintf("%+.1f%%", 100*dl.Relative))
	}
	for _, dl := range d.Regressions {
		row("REGRESSION", dl)
	}
	for _, dl := range d.Improvements {
		row("improved", dl)
	}
	if len(d.Regressions)+len(d.Improvements) == 0 {
		t.AddRow("ok", fmt.Sprintf("all %d matched cells within tolerance", d.Matched), "-", "-", "-", "-")
	}
	var notes []string
	if len(d.Incomparable) > 0 {
		notes = append(notes, fmt.Sprintf("%d cells ran on different graphs (scale or generator changed) and were not compared", len(d.Incomparable)))
	}
	if d.RuntimeSkipped != "" {
		notes = append(notes, "runtime not compared: "+d.RuntimeSkipped)
	}
	if d.AllocSkipped != "" {
		notes = append(notes, "allocations not compared: "+d.AllocSkipped)
	}
	if d.StreamSkipped != "" {
		notes = append(notes, "stream cells not compared: "+d.StreamSkipped)
	}
	if d.ParallelSkipped != "" {
		notes = append(notes, "parallel cells not compared: "+d.ParallelSkipped)
	}
	if d.ServeSkipped != "" {
		notes = append(notes, "serve cells not compared: "+d.ServeSkipped)
	}
	if d.CheckpointSkipped != "" {
		notes = append(notes, "checkpoint cells not compared: "+d.CheckpointSkipped)
	}
	if n := len(d.OnlyBaseline) + len(d.OnlyCurrent); n > 0 {
		notes = append(notes, fmt.Sprintf("%d cells without a counterpart (grid changed): baseline-only %d, current-only %d",
			n, len(d.OnlyBaseline), len(d.OnlyCurrent)))
	}
	t.Note = strings.Join(notes, "; ")
	return t
}
