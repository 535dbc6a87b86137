package partition

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/stream"
)

// CheckpointOptions configures checkpointing of an out-of-core run.
//
// A checkpoint is a small CPK2 record pointing into the run's durable
// output: the stream offset every assignment before which was emitted and
// made durable, and the emit watermark of that output. It holds no
// algorithm state. Every partitioner's run is a deterministic function of
// the replayable stream, k and its seed, so a resume recomputes the whole
// run from edge 0 and the sink checks the recomputed prefix against the
// durable one (assignSink.commit); no partitioner knows about checkpoints.
type CheckpointOptions struct {
	// Path is where checkpoint records are written (store CPK2 format, via
	// AtomicWriter; the previous record rotates to Path+".prev"). Empty
	// disables writing.
	Path string
	// EveryEdges is the checkpoint cadence in edges. Zero or negative
	// selects a default of roughly 1/16 of the stream. Cadence is a floor:
	// checkpoints fire at the first aligned batch boundary at or after
	// each multiple.
	EveryEdges int
	// Resume, when non-nil, continues a run from a checkpoint record: the
	// run streams from edge 0 and recomputes everything, requires its
	// assignment of the durable prefix [0, Offset) to equal the one the
	// interrupted run emitted, and emits from Offset on, bit-identical to
	// an uninterrupted run.
	Resume *Resume
	// EmitMark, when non-nil, is called while writing each checkpoint,
	// after every assignment in [0, Offset) has been emitted and none
	// after. It must make those assignments durable (flush + sync) and
	// return the emit-stream watermark - the byte offset a resume
	// continues the assignment stream from.
	EmitMark func() (int64, error)
}

// Resume is a checkpoint record together with the durable output it points
// into.
type Resume struct {
	// Record is the checkpoint to resume from (store.LoadCheckpoint
	// validates its integrity). The partitioner, k and source geometry must
	// match it.
	Record *store.Checkpoint
	// Prefix reads back the assignments the interrupted run made durable
	// for the edges [0, Record.Offset) - for cmd/clugp, its -assign file
	// up to Record.EmitMark.
	Prefix PrefixReader
}

// PrefixReader reads the durable assignment of a resumed run's prefix.
type PrefixReader interface {
	// ReadPrefix fills assign with the durable partitions of edges, the
	// next run of the prefix in stream order. Successive calls cover
	// exactly [0, Offset); a prefix that ends early is an error.
	ReadPrefix(edges []graph.Edge, assign []int32) error
}

// PrefixOf is a PrefixReader over an assignment held in memory: assign[i]
// is the partition of edge i.
func PrefixOf(assign []int32) PrefixReader { return &slicePrefix{rest: assign} }

type slicePrefix struct{ rest []int32 }

func (s *slicePrefix) ReadPrefix(_ []graph.Edge, assign []int32) error {
	if len(s.rest) < len(assign) {
		return io.ErrUnexpectedEOF
	}
	s.rest = s.rest[copy(assign, s.rest):]
	return nil
}

// CheckpointStats reports checkpoint activity of a run (Result.Pipeline).
type CheckpointStats struct {
	// Enabled reports whether checkpoints were written during the run.
	Enabled bool
	// EveryEdges is the resolved cadence in edges.
	EveryEdges int64
	// Written counts checkpoints written.
	Written int
	// Bytes is the total bytes of all checkpoint records written.
	Bytes int64
	// LastOffset is the stream offset of the last checkpoint written.
	LastOffset int64
	// Resumed reports whether the run restored from a checkpoint.
	Resumed bool
	// ResumeOffset is the stream offset the run resumed from.
	ResumeOffset int64
}

func (s CheckpointStats) String() string {
	if !s.Enabled && !s.Resumed {
		return "off"
	}
	out := ""
	if s.Resumed {
		out = fmt.Sprintf("resumed@%d", s.ResumeOffset)
	}
	if s.Enabled {
		if out != "" {
			out += " "
		}
		out += fmt.Sprintf("every=%d written=%d bytes=%d last@%d",
			s.EveryEdges, s.Written, s.Bytes, s.LastOffset)
	}
	return out
}

// ckRun is the checkpoint plumbing of one out-of-core run, owned by its
// sink.
type ckRun struct {
	// header is the run's identity, copied into every record it writes.
	header store.Checkpoint
	opts   *CheckpointOptions
	// every is the resolved cadence (0 when no records are written) and
	// last the offset of the last record, or of the resume point.
	every, last int64
	// stats is the activity reported in Result.Pipeline.Checkpoints.
	stats CheckpointStats
	// prefix reads the durable assignments of [0, end) a resumed run
	// checks its own against; end is 0 for a fresh run.
	prefix PrefixReader
	end    int
	buf    []int32
}

// verify checks a recomputed run of the durable prefix, starting at stream
// offset pos, against what the interrupted run emitted.
func (ck *ckRun) verify(pos int, edges []graph.Edge, out []int32) error {
	if cap(ck.buf) < len(out) {
		ck.buf = make([]int32, len(out))
	}
	want := ck.buf[:len(out)]
	if err := ck.prefix.ReadPrefix(edges, want); err != nil {
		return fmt.Errorf("durable prefix at edge %d: %w", pos, err)
	}
	for j := range out {
		if out[j] != want[j] {
			return fmt.Errorf("durable assignment of edge %d is %d, the resumed run computes %d", pos+j, want[j], out[j])
		}
	}
	return nil
}

// newCkRun resolves a run's checkpoint plan against the caller's source:
// it validates a resume and resolves the cadence records are written at.
func newCkRun(p Partitioner, src stream.Source, k int, opts *CheckpointOptions) (*ckRun, error) {
	total := int64(src.Len())
	ck := &ckRun{
		header: store.Checkpoint{Algorithm: p.Name(), K: k, NumVertices: src.NumVertices(), NumEdges: total},
		opts:   opts,
	}
	if r := opts.Resume; r != nil {
		if r.Record == nil {
			return nil, errors.New("partition: resume has no checkpoint record")
		}
		if err := validateResume(p, src, k, r.Record); err != nil {
			return nil, err
		}
		if r.Record.Offset > 0 && r.Prefix == nil {
			return nil, fmt.Errorf("partition: resume from offset %d has no durable prefix to check", r.Record.Offset)
		}
		ck.prefix, ck.end = r.Prefix, int(r.Record.Offset)
		ck.last = int64(ck.end)
		ck.stats.Resumed = true
		ck.stats.ResumeOffset = ck.last
	}
	if opts.Path != "" {
		ck.every = resolveCadence(opts.EveryEdges, total)
		ck.stats.Enabled = true
		ck.stats.EveryEdges = ck.every
	}
	return ck, nil
}

// resolveCadence turns the requested cadence into the effective one: at
// least one block, defaulting to ~1/16 of the stream so a run of any size
// writes a bounded number of checkpoints.
func resolveCadence(every int, total int64) int64 {
	e := int64(every)
	if e <= 0 {
		e = (total + 15) / 16
	}
	if e < int64(stream.BlockLen) {
		e = int64(stream.BlockLen)
	}
	return e
}

// validateResume rejects a checkpoint that does not describe this exact
// run: wrong algorithm, partition count or graph geometry would check a
// prefix against the wrong run, so each is a hard error.
func validateResume(p Partitioner, src stream.Source, k int, c *store.Checkpoint) error {
	if c.Algorithm != p.Name() {
		return fmt.Errorf("partition: checkpoint is for algorithm %q, not %q", c.Algorithm, p.Name())
	}
	if c.K != k {
		return fmt.Errorf("partition: checkpoint has k=%d, run has k=%d", c.K, k)
	}
	if c.NumVertices != src.NumVertices() {
		return fmt.Errorf("partition: checkpoint has %d vertices, source has %d", c.NumVertices, src.NumVertices())
	}
	if c.NumEdges != int64(src.Len()) {
		return fmt.Errorf("partition: checkpoint has %d edges, source has %d", c.NumEdges, src.Len())
	}
	if c.Offset < 0 || c.Offset > c.NumEdges {
		return fmt.Errorf("partition: checkpoint offset %d outside [0, %d]", c.Offset, c.NumEdges)
	}
	if c.Offset%int64(stream.BlockLen) != 0 && c.Offset != c.NumEdges {
		return fmt.Errorf("partition: checkpoint offset %d is not a multiple of the block length %d", c.Offset, stream.BlockLen)
	}
	return nil
}

// checkpoint is called after each emitted commit, at stream offset
// watermark. A record fires at the first aligned commit boundary past each
// cadence multiple: the alignment check matters for multi-pass algorithms
// whose internal rebatching commits at other granularity, and the
// watermark < NumEdges guard skips a pointless record of the finished run
// (the final artifact is the output itself).
func (ck *ckRun) checkpoint(watermark int64) error {
	if ck.every == 0 || watermark-ck.last < ck.every || watermark >= ck.header.NumEdges ||
		watermark%int64(stream.BlockLen) != 0 {
		return nil
	}
	if err := ck.write(watermark); err != nil {
		return fmt.Errorf("checkpoint at offset %d: %w", watermark, err)
	}
	ck.last = watermark
	return nil
}

// write writes the record at offset (atomically, rotating the previous
// record to .prev). Called from the emit path right after the offset's
// last batch was emitted, so the EmitMark callback sees exactly the
// assignments in [0, offset).
func (ck *ckRun) write(offset int64) error {
	c := ck.header
	c.Offset = offset
	if ck.opts.EmitMark != nil {
		mark, err := ck.opts.EmitMark()
		if err != nil {
			return fmt.Errorf("emit watermark: %w", err)
		}
		c.EmitMark = mark
	}
	n, err := store.WriteCheckpointFile(ck.opts.Path, &c)
	if err != nil {
		return err
	}
	ck.stats.Written++
	ck.stats.Bytes += n
	ck.stats.LastOffset = offset
	return nil
}
