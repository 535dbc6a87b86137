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
// (package store). They keep reusable scratch between runs (replica
// bitsets, degree tables, load counters); a single Partitioner value is
// therefore not safe for concurrent use. Construct one per goroutine -
// they are cheap, all state is scratch.
package partition

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// Partitioner assigns streamed edges to k partitions. Every run goes
// through one executor (RunOutOfCoreOpts, with RunStreamed, Run and
// RunCached as thin wrappers that capture the assignment), so the
// algorithms implement only the unexported run.
type Partitioner interface {
	// Name identifies the algorithm in experiment output.
	Name() string
	// PreferredOrder is the stream order the algorithm performs best under;
	// the paper grants each competitor its best order (random for the
	// one-pass heuristics and hashes, BFS for Mint and CLUGP).
	PreferredOrder() stream.Order
	// run consumes the edge source (possibly in multiple passes) and
	// delivers one partition id per edge, in stream order, through the
	// sink. Peak memory is the algorithm's own state (O(|V|) tables for
	// CLUGP, the replica bitsets for the heuristics, O(batch) for Mint)
	// plus whatever the sink holds. A multi-pass algorithm declares the
	// point where its earlier passes' state, beyond what the later passes
	// read, is garbage (sink.phaseBoundary).
	run(src stream.Source, k int, sink *assignSink) error
}

// Emit receives one finalized run of assignments in stream order:
// assign[i] is the partition of edges[i]. Both slices are only valid for
// the duration of the call.
type Emit func(edges []graph.Edge, assign []int32) error

// Result bundles a finished run: the ordered stream that was partitioned,
// its assignment, quality metrics and bookkeeping.
type Result struct {
	Algorithm   string
	Order       stream.Order
	K           int
	NumVertices int
	// Stream is the ordered edge source that was partitioned; Assign is
	// aligned with it (Assign[i] is the partition of the i-th streamed
	// edge). Assign is nil for out-of-core runs (RunOutOfCoreOpts), whose
	// assignments exist only transiently in the Emit callback.
	Stream  stream.Source
	Assign  []int32
	Quality *metrics.Quality
	// Replicas is the run's replica table P(v), sealed by the executor's
	// evaluator after the last edge; with Quality.Sizes it is the whole
	// serving state (serve.FromRun), for in-memory and out-of-core runs
	// alike.
	Replicas *metrics.ReplicaSets
	// Runtime is the partitioning pass(es) including the in-pass quality
	// accounting.
	Runtime time.Duration
	// StateBytes is the most the algorithm's own tables held at once: the
	// largest of its per-phase reports (assignSink.hold). Like the paper
	// (Figure 6), it leaves out the input, the assignment and Replicas.
	StateBytes int64
	// Pipeline describes how the hot pass executed (decode and accounting
	// ahead or inline, checkpoints).
	Pipeline PipelineInfo
}

// Run orders the graph's edges per the partitioner's preference, times the
// partitioning pass(es) and evaluates quality. seed feeds the random stream
// order only; partitioner-internal seeds are part of their construction.
func Run(p Partitioner, g *graph.Graph, k int, seed uint64) (*Result, error) {
	return RunCached(p, g, k, seed, nil)
}

// RunCached is Run with the stream order served from c, so repeated runs
// over the same graph (the experiment-suite hot path) reuse one ordered
// permutation instead of re-materializing it per run. A nil cache orders
// the stream afresh.
func RunCached(p Partitioner, g *graph.Graph, k int, seed uint64, c *stream.Cache) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	if err := stream.CheckLen(len(g.Edges)); err != nil {
		return nil, fmt.Errorf("partition: %w", err)
	}
	order := p.PreferredOrder()
	var v stream.View
	if c == nil {
		v = stream.NewView(g, order, seed)
	} else {
		v = c.View(g, order, seed)
	}
	return RunStreamed(p, v.Source(g.NumVertices), order, k)
}

// RunStreamed partitions an already-ordered edge source and captures the
// assignment into Result.Assign. It is the executor in window mode: the
// algorithm writes straight into the result slice and quality is scored
// in the same pass. order records how the stream was produced; it is
// bookkeeping only and does not reorder anything.
func RunStreamed(p Partitioner, src stream.Source, order stream.Order, k int) (*Result, error) {
	res, err := execute(p, src, k, &assignSink{assign: make([]int32, src.Len())}, OutOfCoreOptions{})
	if err != nil {
		return nil, err
	}
	res.Order = order
	return res, nil
}

// OutOfCoreOptions tune the streaming pass. The zero value runs without
// checkpoints. There is no decode or accounting knob: a store file source
// decodes ahead of the partitioner on a second goroutine when GOMAXPROCS
// >= 2 and inline at 1 (PipelineInfo.DecodeAhead), and the quality
// accounting applies behind it the same way (PipelineInfo.AccountingAhead),
// with identical assignments, quality and tables either way.
type OutOfCoreOptions struct {
	// Checkpoint, when non-nil, enables crash tolerance: the run writes
	// checkpoint records to Checkpoint.Path at batch boundaries, and
	// Checkpoint.Resume continues from a record's exact stream offset,
	// bit-identical to an uninterrupted run. Every algorithm that runs out
	// of core checkpoints and resumes.
	Checkpoint *CheckpointOptions
}

// PipelineInfo records how the hot pass actually executed: which decode
// and accounting ran, checkpoint/resume activity, stream retries and
// phase boundaries. clugp -trace prints it.
type PipelineInfo struct {
	// DecodeAhead reports that the source the partitioner read decoded
	// ahead of it on a goroutine of its own (a store file source does at
	// GOMAXPROCS >= 2); false means decode ran inline.
	DecodeAhead bool
	// AccountingAhead reports that the run's quality accounting (the
	// executor's metrics.Evaluator) applied its table and size updates on
	// a goroutine of its own, as it does at GOMAXPROCS >= 2; false means
	// it applied inline.
	AccountingAhead bool
	// Checkpoints reports checkpoint/resume activity (zero when disabled).
	Checkpoints CheckpointStats
	// RetryAttempts counts stream retry attempts fired during the run, when
	// the source is retry-wrapped (stream.Retry); 0 otherwise.
	RetryAttempts int64
	// Boundary reports the phase boundaries the run declared and the heap
	// around the last one's collection.
	Boundary PhaseBoundary
}

// PhaseBoundary reports the phase boundaries of a run: the points where a
// multi-pass partitioner's earlier passes have left only the state the
// later ones read, and the executor collects the rest once. The CLUGP
// family declares one after passes 1 and 2 (one a node for CLUGP-D); the
// one-pass partitioners declare none.
type PhaseBoundary struct {
	// Collections counts the boundaries, each one runtime.GC().
	Collections int
	// HeapBefore and HeapAfter are the heap in use
	// (runtime.MemStats.HeapInuse) just before and just after the last
	// boundary's collection.
	HeapBefore, HeapAfter uint64
}

// RunOutOfCoreOpts partitions a source in its stored (natural) order
// without materializing the assignment: each finalized run of assignments
// is scored incrementally and forwarded to emit (which may be nil to
// discard them, e.g. when only quality is wanted). Peak memory is the
// partitioner's own state plus one block, never O(|E|) - the
// bounded-memory mode behind cmd/clugp -stream. opts adds checkpoints (see
// OutOfCoreOptions); the algorithm's own assignment loop stays sequential
// over the exactly-ordered block stream.
//
// Greedy is refused: it balances only among the partitions of an edge's
// seen endpoints, and in stored order nearly every edge has one, so the
// whole stream lands on the first partition. It runs in memory (Run,
// RunStreamed) under its random order.
func RunOutOfCoreOpts(p Partitioner, src stream.Source, k int, emit Emit, opts OutOfCoreOptions) (*Result, error) {
	if _, isGreedy := p.(*Greedy); isGreedy {
		return nil, errors.New("partition: Greedy cannot run out of core: a stored-order stream gives it no balance term " +
			"(each edge meets an endpoint already placed, so every edge lands on one partition); run it in memory")
	}
	return execute(p, src, k, &assignSink{emit: emit}, opts)
}

// execute is the one executor every run goes through. It hands the
// algorithm's run the sink, which scores every committed run of
// assignments in-pass with one metrics.Evaluator and routes it on (see
// assignSink.commit); the evaluator's sealed table becomes
// Result.Replicas.
func execute(p Partitioner, src stream.Source, k int, sink *assignSink, opts OutOfCoreOptions) (*Result, error) {
	if k < 1 {
		return nil, fmt.Errorf("partition: k must be >= 1, got %d", k)
	}
	orig := src
	nv := src.NumVertices()
	total := src.Len()
	var info PipelineInfo

	// Resolve the checkpoint plan before any wrapping: resume validation is
	// defined against the caller's source.
	if c := opts.Checkpoint; c != nil && (c.Path != "" || c.Resume != nil) {
		ck, err := newCkRun(p, src, k, c)
		if err != nil {
			return nil, err
		}
		sink.ck = ck
	}
	info.DecodeAhead = decodesAhead(src)
	if sink.ck != nil {
		// Pin every sink commit to a BlockLen-multiple stream offset: serial
		// algorithms otherwise commit at whatever block granularity the
		// source delivers (an in-memory view delivers one giant block, which
		// would leave no mid-stream checkpoint points). The rebatch affects
		// scheduling only, never assignments.
		src = stream.Rebatch(src, stream.BlockLen)
	}
	sink.ev.Begin(nv, k)
	info.AccountingAhead = sink.ev.AppliesAhead()
	start := time.Now()
	err := p.run(src, k, sink)
	elapsed := time.Since(start)
	if err == nil && sink.pos != total {
		err = fmt.Errorf("assigned %d of %d edges", sink.pos, total)
	}
	if err != nil {
		return nil, fmt.Errorf("partition: %s: %w", p.Name(), err)
	}
	if sink.ck != nil {
		info.Checkpoints = sink.ck.stats
	}
	if rc, isRetry := orig.(interface{ RetryAttempts() int64 }); isRetry {
		info.RetryAttempts = rc.RetryAttempts()
	}
	info.Boundary = sink.boundary
	res := &Result{
		Algorithm:   p.Name(),
		Order:       stream.Natural,
		K:           k,
		NumVertices: nv,
		// The caller's source, not the checkpoint rebatch wrapper.
		Stream:     orig,
		Assign:     sink.assign,
		Quality:    sink.ev.Finish(),
		Replicas:   sink.ev.Replicas(),
		Runtime:    elapsed,
		StateBytes: sink.held,
		Pipeline:   info,
	}
	return res, nil
}

// assignSink hands a partitioner output space for finalized assignment
// runs and routes them to their destination. In window mode (assign set)
// grab returns windows of the result slice, so writing assignments costs
// nothing extra; otherwise grab returns a reused scratch block, so nothing
// O(|E|) ever exists. Algorithms may mutate a grabbed slice freely until
// they commit it (Mint's best-response rounds rewrite the batch in place).
type assignSink struct {
	assign  []int32
	scratch []int32
	// emit is the caller's callback for committed runs; nil discards them.
	emit Emit
	pos  int
	// ev scores every committed run; its checks run in commit, its table
	// writes on its applier goroutine at GOMAXPROCS >= 2.
	ev metrics.Evaluator
	// ck is the checkpoint plumbing of a checkpointed or resumed run; nil
	// otherwise.
	ck *ckRun
	// boundary records the phase boundaries the partitioner declared.
	boundary PhaseBoundary
	// held is the largest state the partitioner reported; onHold, set by
	// tests, sees each report.
	held   int64
	onHold func(bytes int64)
}

// decodesAhead reports whether a pass over src decodes ahead of its
// consumer (store file sources and retry wrappers over them say so).
func decodesAhead(src stream.Source) bool {
	a, ok := src.(interface{ DecodesAhead() bool })
	return ok && a.DecodesAhead()
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

// commit scores one finalized run, forwards it to emit and gives the
// checkpoint plumbing its offset. This is the one resume rule: a resumed
// run recomputes everything, and the part of a run inside the durable
// prefix [0, Offset) is checked against what the interrupted run emitted
// instead of being emitted again. A run that straddles Offset is checked
// up to it and emits the rest.
func (s *assignSink) commit(edges []graph.Edge, out []int32) error {
	if err := s.ev.Observe(edges, out); err != nil {
		return err
	}
	if s.ck != nil && s.pos < s.ck.end {
		n := min(len(out), s.ck.end-s.pos)
		if err := s.ck.verify(s.pos, edges[:n], out[:n]); err != nil {
			return err
		}
		s.pos += n
		if n == len(out) {
			return nil
		}
		edges, out = edges[n:], out[n:]
	}
	s.pos += len(out)
	if s.emit != nil {
		if err := s.emit(edges, out); err != nil {
			return err
		}
	}
	if s.ck != nil {
		return s.ck.checkpoint(int64(s.pos))
	}
	return nil
}

// phaseBoundary is where a multi-pass partitioner declares that what its
// earlier passes built, beyond the state the later passes read, is
// garbage. The executor collects it there, once, so the later passes'
// tables reuse that memory instead of landing on fresh pages while the
// pacer still counts the dead tables as live. The caller must hold no
// reference to the dead state.
func (s *assignSink) phaseBoundary() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	before := m.HeapInuse
	runtime.GC()
	runtime.ReadMemStats(&m)
	s.boundary = PhaseBoundary{Collections: s.boundary.Collections + 1, HeapBefore: before, HeapAfter: m.HeapInuse}
}

// hold records that the partitioner's tables hold bytes (each table's
// capacity times its element size) at the end of a phase. It keeps a
// number, never a table, so no phase's garbage outlives it.
func (s *assignSink) hold(bytes int64) {
	s.held = max(s.held, bytes)
	if s.onHold != nil {
		s.onHold(bytes)
	}
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
