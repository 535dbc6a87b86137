package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// Checkpoint is one CPK1 file. As a checkpoint record it marks an
// out-of-core partitioning run at a batch boundary: the fixed header
// carries the run geometry and progress marks, and a resume rebuilds the
// run's state by replaying the durable output up to Offset. As a base file
// (CheckpointBaseSuffix) it holds state a run froze before its first
// record - CLUGP's pass-3 tables. Anything algorithm-specific travels in
// named opaque sections, so the codec needs no knowledge of any particular
// partitioner.
type Checkpoint struct {
	// Algorithm names the partitioner that wrote the snapshot; resume
	// refuses a mismatch.
	Algorithm string
	// K and NumVertices pin the run geometry; NumEdges is the full stream
	// length (not the remainder).
	K           int
	NumVertices int
	NumEdges    int64
	// Offset is the number of edges fully processed and emitted: the
	// snapshot covers exactly edges [0, Offset), and resume restarts the
	// stream there. Batch is Offset divided by the pinned batch length
	// (bookkeeping for operators; resume recomputes everything from
	// Offset).
	Offset int64
	Batch  int64
	// EmitMark is the caller-defined durable position of the assignment
	// emit stream (for cmd/clugp, the byte offset of the assignment file):
	// resume truncates the emit stream here before continuing, so a crash
	// mid-batch never leaves half-emitted assignments ahead of the
	// checkpoint.
	EmitMark int64
	// Sections hold the algorithm-specific payloads, in write order: a
	// record names its base file here, a base holds the frozen tables.
	Sections []CheckpointSection
}

// CheckpointSection is one named opaque state blob.
type CheckpointSection struct {
	Name string
	Data []byte
}

// AddSection appends a named section.
func (c *Checkpoint) AddSection(name string, data []byte) {
	c.Sections = append(c.Sections, CheckpointSection{Name: name, Data: data})
}

// Section returns the named section's payload.
func (c *Checkpoint) Section(name string) ([]byte, bool) {
	for i := range c.Sections {
		if c.Sections[i].Name == name {
			return c.Sections[i].Data, true
		}
	}
	return nil, false
}

// Checkpoint-file limits: a handful of sections with short names is all any
// partitioner writes; more in a header is a forgery, not a configuration.
const (
	maxCheckpointSections = 64
	maxCheckpointName     = 64
)

// CheckpointPrevSuffix names the previous-generation checkpoint kept beside
// the current one: WriteCheckpointFile rotates the old file there before
// committing, and LoadCheckpoint falls back to it when the current file is
// corrupt or torn.
const CheckpointPrevSuffix = ".prev"

// CheckpointBaseSuffix names the base file beside a checkpoint: the state a
// run freezes before its first record (CLUGP's pass-3 tables), written once
// by WriteCheckpointBase and named by each record through its CRC32C.
const CheckpointBaseSuffix = ".base"

// ErrBadCheckpointMagic reports that the input is not a checkpoint file.
var ErrBadCheckpointMagic = errors.New("store: bad magic (not a CPK1 checkpoint file)")

// checkpointMagic tags checkpoint files ("CPK" for Compressed Partitioning
// Checkpoint). The format is checksummed from its first version: a
// checkpoint exists to be read after a crash, exactly when torn writes are
// likeliest.
var checkpointMagic = [4]byte{'C', 'P', 'K', '1'}

// WriteCheckpoint encodes a snapshot to w:
//
//	magic "CPK1" | uvarint nv | uvarint ne | uvarint k |
//	uvarint len(algorithm) | algorithm |
//	uvarint offset | uvarint batch | uvarint emitMark |
//	uvarint nsections | per section: uvarint len(name) | name |
//	                                 uvarint len(data) | data |
//	integrity trailer + footer (CRC32C per payload block; see integrity.go)
//
// Encoding is canonical: WriteCheckpoint(ReadCheckpoint(f)) reproduces f
// bit for bit, which FuzzReadCheckpoint holds as the round-trip invariant.
func WriteCheckpoint(w io.Writer, c *Checkpoint) error {
	if err := validateCheckpoint(c); err != nil {
		return err
	}
	cw := newCRCWriter(w)
	if err := writeCheckpointPayload(cw, c); err != nil {
		return err
	}
	return cw.writeTrailer()
}

// writeCheckpointPayload emits magic, header and sections - the checksummed
// span of a CPK1 file.
func writeCheckpointPayload(w io.Writer, c *Checkpoint) error {
	vw := &varintWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	if _, err := vw.bw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	for _, x := range []uint64{uint64(c.NumVertices), uint64(c.NumEdges), uint64(c.K)} {
		if err := vw.uvarint(x); err != nil {
			return err
		}
	}
	if err := vw.uvarint(uint64(len(c.Algorithm))); err != nil {
		return err
	}
	if _, err := vw.bw.WriteString(c.Algorithm); err != nil {
		return err
	}
	for _, x := range []uint64{uint64(c.Offset), uint64(c.Batch), uint64(c.EmitMark)} {
		if err := vw.uvarint(x); err != nil {
			return err
		}
	}
	if err := vw.uvarint(uint64(len(c.Sections))); err != nil {
		return err
	}
	for i := range c.Sections {
		s := &c.Sections[i]
		if err := vw.uvarint(uint64(len(s.Name))); err != nil {
			return err
		}
		if _, err := vw.bw.WriteString(s.Name); err != nil {
			return err
		}
		if err := vw.uvarint(uint64(len(s.Data))); err != nil {
			return err
		}
		if _, err := vw.bw.Write(s.Data); err != nil {
			return err
		}
	}
	return vw.bw.Flush()
}

// validateCheckpoint rejects inconsistent in-memory snapshots before they
// reach disk, mirroring what ReadCheckpoint enforces on the way back in.
func validateCheckpoint(c *Checkpoint) error {
	if c.K < 1 || c.K > maxResultK {
		return fmt.Errorf("store: checkpoint k %d out of range [1, %d]", c.K, maxResultK)
	}
	if len(c.Algorithm) > maxResultString {
		return fmt.Errorf("store: checkpoint algorithm name exceeds %d bytes", maxResultString)
	}
	if c.NumVertices < 0 || c.NumEdges < 0 {
		return fmt.Errorf("store: negative checkpoint counts (%d vertices, %d edges)", c.NumVertices, c.NumEdges)
	}
	if c.Offset < 0 || c.Offset > c.NumEdges {
		return fmt.Errorf("store: checkpoint offset %d outside [0, %d]", c.Offset, c.NumEdges)
	}
	if c.Batch < 0 || c.EmitMark < 0 {
		return fmt.Errorf("store: negative checkpoint marks (batch %d, emit %d)", c.Batch, c.EmitMark)
	}
	if len(c.Sections) > maxCheckpointSections {
		return fmt.Errorf("store: checkpoint has %d sections (limit %d)", len(c.Sections), maxCheckpointSections)
	}
	for i := range c.Sections {
		if n := len(c.Sections[i].Name); n == 0 || n > maxCheckpointName {
			return fmt.Errorf("store: checkpoint section %d name of %d bytes outside [1, %d]", i, n, maxCheckpointName)
		}
	}
	return nil
}

// ReadCheckpoint decodes a checkpoint written by WriteCheckpoint. The whole
// file is buffered and its trailer and every payload block proven before
// any field is decoded, so a torn or bit-flipped checkpoint can never be
// mistaken for a valid one; forged headers (counts, section lengths past
// the payload, trailing bytes) all reject.
func ReadCheckpoint(rd io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return nil, fmt.Errorf("store: buffering checkpoint: %w", err)
	}
	if len(data) < 4 || [4]byte(data[:4]) != checkpointMagic {
		return nil, ErrBadCheckpointMagic
	}
	payload, err := verifyAllBytes(data, "checkpoint")
	if err != nil {
		return nil, err
	}
	return readCheckpointBody(payload[4:])
}

// readCheckpointBody decodes everything after the magic from the proven
// payload. Section payloads are copied out of the buffer, so the decoded
// checkpoint owns its memory.
func readCheckpointBody(body []byte) (*Checkpoint, error) {
	d := ckDecoder{data: body}
	nv := d.uvarint("vertex count")
	ne := d.uvarint("edge count")
	if d.err == nil {
		if err := checkCounts(nv, ne); err != nil {
			return nil, err
		}
	}
	k := d.uvarint("partition count")
	if d.err == nil && (k < 1 || k > maxResultK) {
		return nil, fmt.Errorf("store: checkpoint k %d out of range [1, %d]", k, maxResultK)
	}
	alg := d.str("algorithm", maxResultString)
	offset := d.uvarint("offset")
	batch := d.uvarint("batch index")
	emit := d.uvarint("emit mark")
	if d.err == nil && offset > ne {
		return nil, fmt.Errorf("store: checkpoint offset %d past declared %d edges", offset, ne)
	}
	ns := d.uvarint("section count")
	if d.err == nil && ns > maxCheckpointSections {
		return nil, fmt.Errorf("store: checkpoint has %d sections (limit %d)", ns, maxCheckpointSections)
	}
	if d.err != nil {
		return nil, d.err
	}
	c := &Checkpoint{
		Algorithm:   alg,
		K:           int(k),
		NumVertices: int(nv),
		NumEdges:    int64(ne),
		Offset:      int64(offset),
		Batch:       int64(batch),
		EmitMark:    int64(emit),
	}
	for i := uint64(0); i < ns; i++ {
		name := d.str("section name", maxCheckpointName)
		if d.err == nil && name == "" {
			return nil, errors.New("store: checkpoint section with empty name")
		}
		data := d.bytes("section payload")
		if d.err != nil {
			return nil, d.err
		}
		c.AddSection(name, append([]byte(nil), data...))
	}
	// A checkpoint is a complete artifact, not a stream prefix: trailing
	// bytes mean corruption or concatenation, and accepting them would
	// break the bit-identical round-trip contract.
	if len(d.data) != 0 {
		return nil, errors.New("store: trailing data after checkpoint body")
	}
	return c, nil
}

// ckDecoder walks a proven in-memory payload; the first failure sticks.
// Lengths are validated against the bytes actually present before anything
// is sized from them, so a forged header cannot force a giant allocation.
type ckDecoder struct {
	data []byte
	err  error
}

func (d *ckDecoder) uvarint(field string) uint64 {
	if d.err != nil {
		return 0
	}
	x, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.err = fmt.Errorf("store: checkpoint %s: truncated or overlong varint", field)
		return 0
	}
	d.data = d.data[n:]
	return x
}

func (d *ckDecoder) str(field string, max uint64) string {
	n := d.uvarint(field + " length")
	if d.err != nil {
		return ""
	}
	if n > max {
		d.err = fmt.Errorf("store: checkpoint %s of %d bytes exceeds the %d limit", field, n, max)
		return ""
	}
	if uint64(len(d.data)) < n {
		d.err = fmt.Errorf("store: checkpoint %s truncated (%d bytes, want %d)", field, len(d.data), n)
		return ""
	}
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

func (d *ckDecoder) bytes(field string) []byte {
	n := d.uvarint(field + " length")
	if d.err != nil {
		return nil
	}
	if uint64(len(d.data)) < n {
		d.err = fmt.Errorf("store: checkpoint %s truncated (%d bytes, want %d)", field, len(d.data), n)
		return nil
	}
	b := d.data[:n]
	d.data = d.data[n:]
	return b
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
// one complete previous-generation snapshot: a crash between the rotate and
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

// WriteCheckpointBase atomically writes c to path as a base file and
// returns the bytes written and the CRC32C of the whole file - the digest a
// checkpoint record names its base by. There is no .prev rotation: a run
// writes its base once, and a record whose digest does not match the file
// on disk is refused by ReadCheckpointBase.
func WriteCheckpointBase(path string, c *Checkpoint) (int64, uint32, error) {
	aw, err := NewAtomicWriter(path)
	if err != nil {
		return 0, 0, err
	}
	h := crc32.New(castagnoli)
	cw := &countingWriter{w: io.MultiWriter(aw, h)}
	if err := WriteCheckpoint(cw, c); err != nil {
		aw.Abort()
		return 0, 0, err
	}
	if err := aw.Commit(); err != nil {
		return 0, 0, err
	}
	return cw.n, h.Sum32(), nil
}

// ReadCheckpointBase decodes the base file at path, refusing it unless the
// CRC32C of the whole file is crc: a base left by another run (a different
// seed, k or graph) never stands in for the one a record was written
// against.
func ReadCheckpointBase(path string, crc uint32) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(data, castagnoli); got != crc {
		return nil, fmt.Errorf("store: %s: base CRC32C %08x, the checkpoint names %08x", path, got, crc)
	}
	c, err := ReadCheckpoint(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return c, nil
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
