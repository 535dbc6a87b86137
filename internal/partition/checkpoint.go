package partition

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/stream"
)

// CheckpointOptions configures checkpointing of an out-of-core run.
//
// A checkpoint is a small CPK1 record pointing into the run's durable
// output: the stream offset every assignment before which was emitted and
// made durable, and the emit watermark of that output. The mutable state of
// HDRF and the quality evaluator is a pure function of that prefix,
// so it is never copied; a resume rebuilds it by replaying the prefix. The
// CLUGP family's pass-3 tables are not derivable from the prefix, but they
// are frozen before pass 3 starts, so they are written once per run to a
// base file the records name by CRC32C.
type CheckpointOptions struct {
	// Path is where checkpoint records are written (store CPK1 format, via
	// AtomicWriter; the previous record rotates to Path+".prev"). A
	// CLUGP-family run also writes its frozen tables to Path+".base" once,
	// before its first record, and a resume reads them back from there.
	// Empty disables writing.
	Path string
	// EveryEdges is the checkpoint cadence in edges. Zero or negative
	// selects a default of roughly 1/16 of the stream. Cadence is a floor:
	// checkpoints fire at the first aligned batch boundary at or after
	// each multiple.
	EveryEdges int
	// Resume, when non-nil, continues a run from a checkpoint record: the
	// run streams from edge 0, rebuilds its state from the durable prefix
	// [0, Offset) without emitting it, and emits from Offset on,
	// bit-identical to an uninterrupted run.
	Resume *Resume
	// EmitMark, when non-nil, is called while writing each checkpoint,
	// after every assignment in [0, Offset) has been emitted and none
	// after. It must make those assignments durable (flush + sync) and
	// return the emit-stream watermark - the byte offset a resume
	// truncates the assignment stream to before continuing.
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
	// truncated to Record.EmitMark.
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
	// Bytes is the total bytes of all checkpoints written, the base file
	// included.
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

// Checkpoint section names: a record's digest of its base file, and the
// CLUGP base's vertex records and pass-1/2 scalars.
const (
	sectionBase = "base"

	sectionCLUGPVertex  = "clugp.vertex"
	sectionCLUGPScalars = "clugp.scalars"
)

// loadSection fetches a named section or reports its absence.
func loadSection(c *store.Checkpoint, name string) ([]byte, error) {
	data, ok := c.Section(name)
	if !ok {
		return nil, fmt.Errorf("partition: checkpoint has no %q section", name)
	}
	return data, nil
}

// replaysPrefix reports whether p takes part in checkpoint/resume. HDRF
// and the CLUGP family take their checkpoint plumbing from the sink: while
// sink.replaying(), HDRF applies the durable prefix (sink.replay) through
// the same table updates its scoring loop makes, and CLUGP recomputes
// pass 3 and checks it against the prefix (sink.verify).
func replaysPrefix(p Partitioner) bool {
	switch p.(type) {
	case *HDRF, *CLUGP:
		return true
	}
	return false
}

// ckRun is the checkpoint plumbing of one out-of-core run, handed to the
// partitioner through its sink.
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
	// replays; end is 0 for a fresh run.
	prefix PrefixReader
	end    int
	buf    []int32
	// base is the resumed record's base file, decoded; nil otherwise.
	base *store.Checkpoint
	// freeze, set by the CLUGP family when pass 3 starts, encodes the
	// frozen tables as the base file's sections.
	freeze func() []store.CheckpointSection
	// baseCRC names the run's base file once haveBase.
	baseCRC  uint32
	haveBase bool
}

// replaying reports whether the sink's next block lies in the durable
// prefix of a resumed run. Checkpointed runs rebatch to BlockLen and
// records sit on BlockLen multiples, so a block is wholly prefix or not.
func (s *assignSink) replaying() bool { return s.ck != nil && s.pos < s.ck.end }

// replay fills out with the durable assignments of blk.
func (s *assignSink) replay(blk []graph.Edge, out []int32) error {
	if err := s.ck.prefix.ReadPrefix(blk, out); err != nil {
		return fmt.Errorf("durable prefix at edge %d: %w", s.pos, err)
	}
	for j, p := range out {
		if p < 0 || int(p) >= s.ck.header.K {
			return fmt.Errorf("durable assignment of edge %d is %d, outside [0, %d)", s.pos+j, p, s.ck.header.K)
		}
	}
	return nil
}

// verify checks a recomputed block of the durable prefix against what the
// interrupted run emitted; outside the prefix it does nothing.
func (s *assignSink) verify(blk []graph.Edge, out []int32) error {
	if !s.replaying() {
		return nil
	}
	if cap(s.ck.buf) < len(out) {
		s.ck.buf = make([]int32, len(out))
	}
	want := s.ck.buf[:len(out)]
	if err := s.replay(blk, want); err != nil {
		return err
	}
	for j := range out {
		if out[j] != want[j] {
			return fmt.Errorf("durable assignment of edge %d is %d, the resumed run computes %d", s.pos+j, want[j], out[j])
		}
	}
	return nil
}

// newCkRun resolves a run's checkpoint plan against the caller's source:
// it validates a resume and loads the base file its record names, and
// resolves the cadence records are written at.
func newCkRun(p Partitioner, src stream.Source, k int, opts *CheckpointOptions) (*ckRun, error) {
	total := int64(src.Len())
	ck := &ckRun{
		header: store.Checkpoint{Algorithm: p.Name(), K: k, NumVertices: src.NumVertices(), NumEdges: total},
		opts:   opts,
	}
	if opts.Resume != nil {
		if err := ck.openResume(p, src, k, opts); err != nil {
			return nil, err
		}
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
// run: wrong algorithm, partition count or graph geometry would replay a
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

// openResume validates a resume against the run and loads the base file
// its record names, if any.
func (ck *ckRun) openResume(p Partitioner, src stream.Source, k int, opts *CheckpointOptions) error {
	rec := opts.Resume.Record
	if rec == nil {
		return errors.New("partition: resume has no checkpoint record")
	}
	if err := validateResume(p, src, k, rec); err != nil {
		return err
	}
	if rec.Offset > 0 && opts.Resume.Prefix == nil {
		return fmt.Errorf("partition: resume from offset %d has no durable prefix to replay", rec.Offset)
	}
	ck.prefix, ck.end = opts.Resume.Prefix, int(rec.Offset)
	data, ok := rec.Section(sectionBase)
	if !ok {
		return nil
	}
	if len(data) != 4 {
		return fmt.Errorf("partition: checkpoint base digest of %d bytes, want 4", len(data))
	}
	if opts.Path == "" {
		return errors.New("partition: checkpoint points into a base file; resume needs CheckpointOptions.Path to find it")
	}
	crc := binary.LittleEndian.Uint32(data)
	base, err := store.ReadCheckpointBase(opts.Path+store.CheckpointBaseSuffix, crc)
	if err != nil {
		return fmt.Errorf("partition: checkpoint base: %w", err)
	}
	if err := validateResume(p, src, k, base); err != nil {
		return fmt.Errorf("checkpoint base: %w", err)
	}
	ck.base, ck.baseCRC, ck.haveBase = base, crc, true
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
// record to .prev), first writing the base file if the run froze state and
// has not written it yet. Called from the emit path right after the
// offset's last batch was emitted, so the EmitMark callback sees exactly
// the assignments in [0, offset).
func (ck *ckRun) write(offset int64) error {
	c := ck.header
	c.Offset = offset
	c.Batch = offset / int64(stream.BlockLen)
	if ck.opts.EmitMark != nil {
		mark, err := ck.opts.EmitMark()
		if err != nil {
			return fmt.Errorf("emit watermark: %w", err)
		}
		c.EmitMark = mark
	}
	if !ck.haveBase && ck.freeze != nil {
		base := ck.header
		base.Sections = ck.freeze()
		n, crc, err := store.WriteCheckpointBase(ck.opts.Path+store.CheckpointBaseSuffix, &base)
		if err != nil {
			return fmt.Errorf("checkpoint base: %w", err)
		}
		ck.baseCRC, ck.haveBase = crc, true
		ck.stats.Bytes += n
	}
	if ck.haveBase {
		c.AddSection(sectionBase, binary.LittleEndian.AppendUint32(nil, ck.baseCRC))
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
