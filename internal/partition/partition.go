// Package partition implements the vertex-cut streaming partitioners
// evaluated in the paper (Table I): Hashing, DBH, Greedy, HDRF, Mint and
// CLUGP, plus the CLUGP-S / CLUGP-G ablation variants of Figure 9, all
// behind one interface.
//
// A vertex-cut partitioner assigns every streamed edge to exactly one of k
// partitions; quality is measured by the replication factor and relative
// load balance of Section II-B (package metrics).
//
// Partitioners consume the stream as a stream.Source - a sequential,
// replayable edge stream - so the same algorithm code runs over an
// in-memory zero-copy view and over a file that is never materialized
// (package store). They may keep reusable scratch between runs (see
// PartitionInto); a single Partitioner value is therefore not safe for
// concurrent use. Construct one per goroutine - they are cheap, all state
// is scratch.
package partition

import (
	"fmt"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// Partitioner assigns streamed edges to k partitions.
type Partitioner interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// PreferredOrder is the stream order the algorithm performs best under;
	// the paper grants each competitor its best order (random for the
	// one-pass heuristics and hashes, BFS for Mint and CLUGP).
	PreferredOrder() stream.Order
	// Partition consumes the edge source (possibly in multiple passes) and
	// returns one partition id per edge, aligned with the stream.
	Partition(src stream.Source, k int) ([]int32, error)
}

// IntoPartitioner is implemented by partitioners whose hot loop is
// allocation-free: PartitionInto writes the assignment into a caller-owned
// slice and reuses the partitioner's internal scratch (replica bitsets,
// degree tables, load counters) across calls. It is the repeated-run API
// the benchmarks and the suite lean on; Partition remains the convenient
// one-shot form.
type IntoPartitioner interface {
	// PartitionInto partitions the source into assign, which must have
	// length src.Len().
	PartitionInto(src stream.Source, k int, assign []int32) error
}

// Emit receives one finalized run of assignments in stream order:
// assign[i] is the partition of edges[i]. Both slices are only valid for
// the duration of the call.
type Emit func(edges []graph.Edge, assign []int32) error

// StreamingPartitioner is implemented by partitioners that can deliver
// their assignment incrementally - the out-of-core mode. PartitionStream
// partitions the source and hands each finalized run of assignments to
// emit in stream order without ever materializing the full O(|E|)
// assignment, so peak memory is the algorithm's own state (O(|V|) tables
// for CLUGP, the replica bitsets for the heuristics, O(batch) for Mint)
// plus one block buffer.
type StreamingPartitioner interface {
	PartitionStream(src stream.Source, k int, emit Emit) error
}

// StateSizer is implemented by partitioners that can report the peak size
// in bytes of their internal state for the memory-cost comparison
// (Figure 6). The estimate covers algorithm state only, not the input
// stream or the output assignment, mirroring how the paper attributes
// memory.
type StateSizer interface {
	StateBytes(numVertices, numEdges, k int) int64
}

// Result bundles a finished run: the ordered stream that was partitioned,
// its assignment, quality metrics and bookkeeping.
type Result struct {
	Algorithm   string
	Order       stream.Order
	K           int
	NumVertices int
	// Stream is the ordered edge source that was partitioned; Assign is
	// aligned with it (Assign[i] is the partition of the i-th streamed
	// edge). Assign is nil for out-of-core runs (RunOutOfCore), whose
	// assignments exist only transiently in the Emit callback.
	Stream     stream.Source
	Assign     []int32
	Quality    *metrics.Quality
	Runtime    time.Duration
	StateBytes int64
	// Pipeline describes how the out-of-core hot pass executed (decode
	// worker count, serial fallbacks, checkpoints). Zero for in-memory runs.
	Pipeline PipelineInfo
}

// Run orders the graph's edges per the partitioner's preference, times the
// partitioning pass(es) and evaluates quality. seed feeds the random stream
// order only; partitioner-internal seeds are part of their construction.
func Run(p Partitioner, g *graph.Graph, k int, seed uint64) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	if err := stream.CheckLen(len(g.Edges)); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	order := p.PreferredOrder()
	return RunStreamed(p, stream.NewView(g, order, seed).Source(g.NumVertices), order, k)
}

// RunCached is Run with the stream order served from c, so repeated runs
// over the same graph (the experiment-suite hot path) reuse one ordered
// permutation instead of re-materializing it per run. A nil cache falls
// back to Run.
func RunCached(p Partitioner, g *graph.Graph, k int, seed uint64, c *stream.Cache) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	if c == nil {
		return Run(p, g, k, seed)
	}
	if err := stream.CheckLen(len(g.Edges)); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	order := p.PreferredOrder()
	return RunStreamed(p, c.View(g, order, seed).Source(g.NumVertices), order, k)
}

// RunStreamed partitions an already-ordered edge source, timing the
// partitioning pass(es) and evaluating quality. order records how the
// stream was produced; it is bookkeeping only and does not reorder
// anything.
func RunStreamed(p Partitioner, src stream.Source, order stream.Order, k int) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	start := time.Now()
	assign, err := p.Partition(src, k)
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("partition: %s: %w", p.Name(), err)
	}
	if len(assign) != src.Len() {
		return nil, fmt.Errorf("partition: %s returned %d assignments for %d edges", p.Name(), len(assign), src.Len())
	}
	q, err := metrics.Evaluate(src, assign, k)
	if err != nil {
		return nil, fmt.Errorf("partition: %s: %w", p.Name(), err)
	}
	res := &Result{
		Algorithm:   p.Name(),
		Order:       order,
		K:           k,
		NumVertices: src.NumVertices(),
		Stream:      src,
		Assign:      assign,
		Quality:     q,
		Runtime:     elapsed,
	}
	if sz, ok := p.(StateSizer); ok {
		res.StateBytes = sz.StateBytes(src.NumVertices(), src.Len(), k)
	}
	return res, nil
}

// OutOfCoreOptions tune the out-of-core streaming pass. The zero value is
// the serial mode RunOutOfCore has always run.
type OutOfCoreOptions struct {
	// Workers enables the parallel hot pass when > 1 and the source can be
	// segmented (every source in this repository can): a fleet of Workers
	// decode goroutines pulls disjoint stream.Segmenter ranges and feeds the
	// assignment stage fixed-size batches committed in segment order, and
	// quality accounting runs on Workers vertex-range shard workers over a
	// metrics.ShardedReplicaSets. Assignments and quality are bit-identical
	// to the serial pass for any worker count - the decode/merge pipeline
	// preserves exact stream order and the sharded accounting is
	// commutative - which TestParallelWorkerInvariance holds across every
	// algorithm x backend x format combination. Sources that cannot segment
	// fall back to the serial pass.
	Workers int
	// Checkpoint, when non-nil, enables crash tolerance: the run writes
	// checkpoint records to Checkpoint.Path at batch boundaries, and
	// Checkpoint.Resume continues from a record's exact stream offset,
	// bit-identical to an uninterrupted run. HDRF, Greedy and the CLUGP
	// family checkpoint; others run without checkpoints, recorded in
	// Result.Pipeline.
	Checkpoint *CheckpointOptions
}

// PipelineInfo records how the out-of-core hot pass actually executed,
// including downgrades that used to be silent: a non-Segmenter source
// demotes -workers to serial decode, and a partitioner without checkpoint
// support runs without checkpoints. clugp -trace prints it.
type PipelineInfo struct {
	// DecodeWorkers is the resolved decode-fleet size (1 = serial decode).
	DecodeWorkers int
	// SerialFallback explains every requested parallel mode that ran
	// serially anyway; empty when nothing was demoted.
	SerialFallback string
	// Checkpoints reports checkpoint/resume activity (zero when disabled).
	Checkpoints CheckpointStats
	// RetryAttempts counts stream retry attempts fired during the run, when
	// the source is retry-wrapped (stream.Retry); 0 otherwise.
	RetryAttempts int64
}

// addFallback appends one demotion note to SerialFallback.
func (i *PipelineInfo) addFallback(note string) {
	if i.SerialFallback != "" {
		i.SerialFallback += "; " + note
	} else {
		i.SerialFallback = note
	}
}

// RunOutOfCore partitions a source in its stored (natural) order without
// materializing the assignment: each finalized run of assignments is scored
// incrementally and forwarded to emit (which may be nil to discard them,
// e.g. when only quality is wanted). Peak memory is the partitioner's own
// state plus one block, never O(|E|) - the bounded-memory mode behind
// cmd/clugp -stream. The partitioner must implement StreamingPartitioner
// (every algorithm in this package does).
//
// Because quality accounting happens inside the single pass, Runtime
// includes it, unlike the in-memory runners which evaluate after the
// timed pass.
func RunOutOfCore(p Partitioner, src stream.Source, k int, emit Emit) (*Result, error) {
	return RunOutOfCoreOpts(p, src, k, emit, OutOfCoreOptions{})
}

// qualityObserver is the incremental accounting seam between the serial
// metrics.Evaluator and the sharded metrics.ParallelEvaluator.
type qualityObserver interface {
	Observe(edges []graph.Edge, assign []int32) error
	Finish() *metrics.Quality
}

// RunOutOfCoreOpts is RunOutOfCore with the parallel hot pass available:
// with opts.Workers > 1 the decode stage and the quality accounting run on
// worker fleets (see OutOfCoreOptions.Workers) while the algorithm's own
// assignment loop stays sequential over the exactly-ordered batch stream,
// keeping results bit-identical to the serial pass.
func RunOutOfCoreOpts(p Partitioner, src stream.Source, k int, emit Emit, opts OutOfCoreOptions) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	sp, ok := p.(StreamingPartitioner)
	if !ok {
		return nil, fmt.Errorf("partition: %s cannot stream its assignment (no StreamingPartitioner)", p.Name())
	}
	orig := src
	nv := src.NumVertices()
	total := int64(src.Len())
	parallel := false
	info := PipelineInfo{DecodeWorkers: 1}

	// Resolve the checkpoint plan before any wrapping: resume validation is
	// defined against the caller's source.
	var (
		ckOpts *CheckpointOptions
		ck     *ckRun
		every  int64
	)
	if c := opts.Checkpoint; c != nil && (c.Path != "" || c.Resume != nil) {
		switch {
		case replaysPrefix(p):
			ckOpts, ck = c, &ckRun{k: k}
		case c.Resume != nil:
			// Resuming without prefix replay would re-partition from
			// scratch against a truncated emit stream: hard error.
			return nil, fmt.Errorf("partition: %s cannot restore checkpoint state (no prefix replay)", p.Name())
		default:
			info.addFallback(p.Name() + " cannot resume from a checkpoint snapshot, checkpointing disabled")
		}
	}
	resumeOffset := int64(0)
	if ckOpts != nil && ckOpts.Resume != nil {
		if err := ck.openResume(p, src, k, ckOpts); err != nil {
			return nil, err
		}
		resumeOffset = int64(ck.end)
		info.Checkpoints.Resumed = true
		info.Checkpoints.ResumeOffset = resumeOffset
	}
	if ckOpts != nil && ckOpts.Path != "" {
		every = resolveCadence(ckOpts.EveryEdges, total)
		info.Checkpoints.Enabled = true
		info.Checkpoints.EveryEdges = every
	}
	if opts.Workers > 1 {
		if seg, isSeg := src.(stream.Segmenter); isSeg {
			par, err := stream.Parallel(seg, stream.ParallelConfig{Workers: opts.Workers})
			if err != nil {
				return nil, fmt.Errorf("partition: %s: %w", p.Name(), err)
			}
			defer par.Close()
			src = par
			parallel = true
			info.DecodeWorkers = opts.Workers
		} else {
			// Not an error - the serial pass produces identical results -
			// but no longer silent: the caller asked for parallel decode
			// and did not get it.
			info.addFallback(fmt.Sprintf("source %T cannot segment into ranges, decode runs serially", src))
		}
	}
	if ckOpts != nil {
		// Pin every sink commit to a BlockLen-multiple stream offset: serial
		// algorithms otherwise commit at whatever block granularity the
		// source delivers (an in-memory view delivers one giant block, which
		// would leave no mid-stream checkpoint points), and a resumed run's
		// boundaries must land on the same offsets a clean run's do, so each
		// block is wholly inside or outside the replayed prefix. The rebatch
		// affects scheduling only, never assignments.
		src = stream.Rebatch(src, stream.BlockLen)
	}
	var ev qualityObserver
	if parallel {
		pev := &metrics.ParallelEvaluator{}
		pev.Begin(nv, k, opts.Workers)
		defer pev.Stop()
		ev = pev
	} else {
		sev := &metrics.Evaluator{}
		sev.Begin(nv, k)
		ev = sev
	}
	watermark, lastCkpt := int64(0), resumeOffset
	observe := func(edges []graph.Edge, assign []int32) error {
		if err := ev.Observe(edges, assign); err != nil {
			return err
		}
		if watermark < resumeOffset {
			// The replayed prefix rebuilds state only: it is durable already.
			watermark += int64(len(edges))
			return nil
		}
		if emit != nil {
			if err := emit(edges, assign); err != nil {
				return err
			}
		}
		watermark += int64(len(edges))
		// A checkpoint fires at the first aligned commit boundary past each
		// cadence multiple. The alignment check matters for multi-pass
		// algorithms whose internal rebatching commits at other granularity,
		// and the watermark < total guard skips a pointless record of the
		// finished run (the final artifact is the output itself).
		if every > 0 && watermark-lastCkpt >= every && watermark < total &&
			watermark%int64(stream.BlockLen) == 0 {
			if err := writeRunCheckpoint(p, ck, ckOpts, k, nv, total, watermark, &info.Checkpoints); err != nil {
				return fmt.Errorf("checkpoint at offset %d: %w", watermark, err)
			}
			lastCkpt = watermark
		}
		return nil
	}
	start := time.Now()
	var err error
	if ck != nil {
		err = p.(sinkRunner).run(src, k, &assignSink{emit: observe, ck: ck})
	} else {
		err = sp.PartitionStream(src, k, observe)
	}
	elapsed := time.Since(start)
	if err != nil {
		return nil, fmt.Errorf("partition: %s: %w", p.Name(), err)
	}
	if rc, isRetry := orig.(interface{ RetryAttempts() int64 }); isRetry {
		info.RetryAttempts = rc.RetryAttempts()
	}
	res := &Result{
		Algorithm:   p.Name(),
		Order:       stream.Natural,
		K:           k,
		NumVertices: nv,
		// The caller's source, not the parallel wrapper: the wrapper's
		// fleet is released when this function returns.
		Stream:   orig,
		Quality:  ev.Finish(),
		Runtime:  elapsed,
		Pipeline: info,
	}
	if sz, isSz := p.(StateSizer); isSz {
		res.StateBytes = sz.StateBytes(nv, int(total), k)
	}
	return res, nil
}

// assignSink hands a partitioner output space for finalized assignment
// runs and routes them to their destination. In materialized mode (assign
// set) grab returns windows of the caller's slice, so writing assignments
// costs nothing extra; in emit mode grab returns a reused scratch block and
// commit forwards it, so nothing O(|E|) ever exists. Algorithms may mutate
// a grabbed slice freely until they commit it (Mint's best-response rounds
// rewrite the batch in place).
type assignSink struct {
	assign  []int32
	scratch []int32
	emit    Emit
	pos     int
	// ck is the checkpoint plumbing of a checkpointed or resumed
	// out-of-core run; nil otherwise.
	ck *ckRun
}

func (s *assignSink) grab(n int) []int32 {
	if s.assign != nil {
		return s.assign[s.pos : s.pos+n]
	}
	if cap(s.scratch) < n {
		s.scratch = make([]int32, n)
	}
	return s.scratch[:n]
}

func (s *assignSink) commit(edges []graph.Edge, out []int32) error {
	s.pos += len(out)
	if s.emit != nil {
		return s.emit(edges, out)
	}
	return nil
}

// sinkRunner is the internal shape every partitioner in this package
// implements: one run over the source delivering assignments through the
// sink. PartitionInto and PartitionStream are both thin wrappers over it.
type sinkRunner interface {
	run(src stream.Source, k int, sink *assignSink) error
}

// partitionVia implements the one-shot Partition in terms of an
// allocation-free PartitionInto.
func partitionVia(p IntoPartitioner, src stream.Source, k int) ([]int32, error) {
	assign := make([]int32, src.Len())
	if err := p.PartitionInto(src, k, assign); err != nil {
		return nil, err
	}
	return assign, nil
}

// streamVia implements PartitionStream in terms of the sink runner.
// (PartitionInto is written out concretely in each algorithm instead of
// through this interface: a concrete call chain lets the per-run sink stay
// on the stack, preserving the zero-allocation repeated-run contract.)
func streamVia(p sinkRunner, src stream.Source, k int, emit Emit) error {
	if k < 1 {
		return fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	return p.run(src, k, &assignSink{emit: emit})
}

// checkInto validates the common PartitionInto preconditions.
func checkInto(src stream.Source, k int, assign []int32) error {
	if k < 1 {
		return fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	if len(assign) != src.Len() {
		return fmt.Errorf("partition: assign has length %d, stream has %d edges", len(assign), src.Len())
	}
	return nil
}

// forEachBlock adapts stream.ForEach for the partitioner loops, which
// track their own position through the sink and never need the offset.
func forEachBlock(src stream.Source, fn func(blk []graph.Edge) error) error {
	return stream.ForEach(src, func(_ int, blk []graph.Edge) error { return fn(blk) })
}

// leastLoaded returns the partition with the smallest size among candidates
// (ties to the earliest candidate). candidates must be non-empty.
func leastLoaded(sizes []int64, candidates []int32) int32 {
	best := candidates[0]
	for _, p := range candidates[1:] {
		if sizes[p] < sizes[best] {
			best = p
		}
	}
	return best
}

// leastLoadedAll returns the globally least-loaded partition.
func leastLoadedAll(sizes []int64) int32 {
	best := int32(0)
	for p := int32(1); p < int32(len(sizes)); p++ {
		if sizes[p] < sizes[best] {
			best = p
		}
	}
	return best
}
