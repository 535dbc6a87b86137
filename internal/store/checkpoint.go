package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
)

// Checkpoint is one CPK2 record. It marks an out-of-core partitioning run
// at a batch boundary: the fixed header carries the run geometry and
// progress marks, and nothing else. A resume recomputes the run from edge 0
// and checks the recomputed assignment against the durable output up to
// Offset, so a record carries no algorithm state.
type Checkpoint struct {
	// Algorithm names the partitioner that wrote the record; resume
	// refuses a mismatch.
	Algorithm string
	// K and NumVertices pin the run geometry; NumEdges is the full stream
	// length (not the remainder).
	K           int
	NumVertices int
	NumEdges    int64
	// Offset is the number of edges fully processed and emitted: the
	// durable output covers exactly edges [0, Offset), and a resume emits
	// from there.
	Offset int64
	// EmitMark is the caller-defined durable position of the assignment
	// emit stream (for cmd/clugp, the byte offset of the assignment file):
	// a resume continues the emit stream from here, so whatever a crash
	// left half-emitted past it is written over.
	EmitMark int64
}

// CheckpointPrevSuffix names the previous-generation checkpoint kept beside
// the current one: WriteCheckpointFile rotates the old file there before
// committing, and LoadCheckpoint falls back to it when the current file is
// corrupt or torn.
const CheckpointPrevSuffix = ".prev"

// ErrBadCheckpointMagic reports that the input is not a checkpoint file.
var ErrBadCheckpointMagic = errors.New("store: bad magic (not a CPK2 checkpoint file)")

// checkpointMagic tags checkpoint files ("CPK" for Compressed Partitioning
// Checkpoint). The format is checksummed from its first version: a
// checkpoint exists to be read after a crash, exactly when torn writes are
// likeliest. CPK2 dropped CPK1's named sections and batch index, so a
// CPK1 file is refused by its magic.
var checkpointMagic = [4]byte{'C', 'P', 'K', '2'}

// WriteCheckpoint encodes a record to w:
//
//	magic "CPK2" | uvarint nv | uvarint ne | uvarint k |
//	uvarint len(algorithm) | algorithm |
//	uvarint offset | uvarint emitMark |
//	integrity trailer + footer (CRC32C per payload block; see integrity.go)
//
// Encoding is canonical and ReadCheckpoint enforces it, so
// WriteCheckpoint(ReadCheckpoint(f)) reproduces f bit for bit;
// FuzzReadCheckpoint and FuzzReadCheckpointBody hold this as the round-trip
// invariant.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	if err := validateCheckpoint(c); err != nil {
		return err
	}
	b := appendHeader(nil, checkpointMagic, uint64(c.NumVertices), uint64(c.NumEdges))
	b = appendString(binary.AppendUvarint(b, uint64(c.K)), c.Algorithm)
	b = binary.AppendUvarint(binary.AppendUvarint(b, uint64(c.Offset)), uint64(c.EmitMark))
	cw := newCRCWriter(w)
	if _, err := cw.Write(b); err != nil {
		return err
	}
	return cw.writeTrailer()
}

// validateCheckpoint rejects inconsistent in-memory records before they
// reach disk, mirroring what ReadCheckpoint enforces on the way back in.
func validateCheckpoint(c *Checkpoint) error {
	if c.K < 1 || c.K > maxK {
		return fmt.Errorf("store: checkpoint k %d out of range [1, %d]", c.K, maxK)
	}
	if len(c.Algorithm) > maxName {
		return fmt.Errorf("store: checkpoint algorithm name exceeds %d bytes", maxName)
	}
	if c.NumVertices < 0 || c.NumEdges < 0 {
		return fmt.Errorf("store: negative checkpoint counts (%d vertices, %d edges)", c.NumVertices, c.NumEdges)
	}
	if c.Offset < 0 || c.Offset > c.NumEdges {
		return fmt.Errorf("store: checkpoint offset %d outside [0, %d]", c.Offset, c.NumEdges)
	}
	if c.EmitMark < 0 {
		return fmt.Errorf("store: negative checkpoint emit mark %d", c.EmitMark)
	}
	return nil
}

// ReadCheckpoint decodes a checkpoint written by WriteCheckpoint. The whole
// file is read and proven before any field is decoded (readSealed), so a
// torn or bit-flipped checkpoint can never be mistaken for a valid one;
// forged headers (counts, lengths past the payload, overlong varints,
// trailing bytes) all reject.
func ReadCheckpoint(rd io.Reader) (*Checkpoint, error) {
	f, err := readSealed(rd, checkpointMagic, ErrBadCheckpointMagic, "checkpoint")
	if err != nil {
		return nil, err
	}
	return readCheckpointBody(f)
}

// readCheckpointBody decodes everything after the magic of the payload f,
// which must end exactly where the record does.
func readCheckpointBody(f chunked) (*Checkpoint, error) {
	cur := f.cursor(int64(len(checkpointMagic)))
	c := &cur
	nv, ne, err := readCounts(c)
	if err != nil {
		return nil, err
	}
	k, err := readK(c, "checkpoint")
	if err != nil {
		return nil, err
	}
	alg, err := c.str()
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint algorithm: %w", err)
	}
	offset, err := c.field()
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint offset: %w", err)
	}
	if offset > ne {
		return nil, fmt.Errorf("store: checkpoint offset %d past declared %d edges", offset, ne)
	}
	emit, err := c.field()
	if err != nil {
		return nil, fmt.Errorf("store: checkpoint emit mark: %w", err)
	}
	if emit > math.MaxInt64 {
		return nil, fmt.Errorf("store: checkpoint emit mark %d out of range", emit)
	}
	// A checkpoint is a complete artifact, not a stream prefix: trailing
	// bytes mean corruption or concatenation, and accepting them would
	// break the bit-identical round-trip contract.
	if c.abs() != f.size {
		return nil, errors.New("store: trailing data after checkpoint body")
	}
	return &Checkpoint{
		Algorithm:   alg,
		K:           k,
		NumVertices: int(nv),
		NumEdges:    int64(ne),
		Offset:      int64(offset),
		EmitMark:    int64(emit),
	}, nil
}

// countingWriter counts the bytes passing through to w.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// WriteCheckpointFile atomically replaces path with a new checkpoint,
// rotating any existing file to path+".prev" first, and returns the bytes
// written. The write itself goes through AtomicWriter (temp + fsync +
// rename), so at every instant the pair (path, path+".prev") holds at least
// one complete previous-generation record: a crash between the rotate and
// the commit leaves only ".prev", which LoadCheckpoint falls back to.
func WriteCheckpointFile(path string, c *Checkpoint) (int64, error) {
	if _, err := os.Stat(path); err == nil {
		if err := os.Rename(path, path+CheckpointPrevSuffix); err != nil {
			return 0, fmt.Errorf("store: rotating checkpoint: %w", err)
		}
	}
	aw, err := NewAtomicWriter(path)
	if err != nil {
		return 0, err
	}
	cw := &countingWriter{w: aw}
	if err := WriteCheckpoint(cw, c); err != nil {
		aw.Abort()
		return 0, err
	}
	if err := aw.Commit(); err != nil {
		return 0, err
	}
	return cw.n, nil
}

// ReadCheckpointFile decodes the checkpoint at path.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	c, err := ReadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return c, nil
}

// LoadCheckpoint reads the newest usable checkpoint of the path pair: the
// current file if it proves out, otherwise the rotated path+".prev". A
// corrupt, truncated or missing current file is never resumed from - the
// CRC trailer decides, not the caller. The second return is the file
// actually used.
func LoadCheckpoint(path string) (*Checkpoint, string, error) {
	c, err := ReadCheckpointFile(path)
	if err == nil {
		return c, path, nil
	}
	prev := path + CheckpointPrevSuffix
	pc, perr := ReadCheckpointFile(prev)
	if perr == nil {
		return pc, prev, nil
	}
	return nil, "", fmt.Errorf("store: no usable checkpoint: %v; fallback: %v", err, perr)
}
