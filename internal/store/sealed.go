package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// The sealed-file codec: what CGR3 graphs, CPR2 results and CPK2
// checkpoints share. Every file is
//
//	magic | uvarint nv | uvarint ne | format fields | integrity trailer
//
// and the formats differ only in their fields and validation rules. One
// encoder writes the shared header (appendHeader), one reader buffers and
// proves a whole file (readSealed), one decoder reads the counts
// (readCounts), and every header field is read as a canonical varint or a
// length-bounded string (cursor.field, cursor.str), so a decoded file
// always re-encodes to its own bytes.

// Field limits shared by CPR2 and CPK2. Vertex and edge counts are bounded
// by checkCounts. Partition ids travel as int32 everywhere in this
// repository, and a million partitions is already far past any deployment,
// so a bigger k in a header is a forgery rather than a configuration.
// Names (the algorithm and the stream order) are at most maxName bytes.
const (
	maxK    = 1 << 20
	maxName = 255
)

// errVarintOverlong reports a multi-byte varint whose last byte is zero: it
// spells a value that has a shorter encoding. Writers emit only the
// shortest, and accepting another spelling would break the canonical
// round trip.
var errVarintOverlong = errors.New("store: overlong varint (not canonical)")

// appendHeader appends the magic and the counts every sealed format opens
// with.
func appendHeader(b []byte, magic [4]byte, nv, ne uint64) []byte {
	b = append(b, magic[:]...)
	b = binary.AppendUvarint(b, nv)
	return binary.AppendUvarint(b, ne)
}

// appendString appends a length-prefixed string field.
func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// readSealed reads a whole sealed file from rd and returns a cursor over
// its payload, positioned past the magic. An io.Reader cannot seek to the
// trailer at EOF, so the file is buffered: the magic is checked first, and
// a file of another kind is refused by errBadMagic; the rest is read in
// fixed chunks assembled once into one buffer of the file's exact length;
// and the trailer and every payload block are proven before the caller
// decodes a field, so a corrupt file can never be mistaken for a valid
// one. Reading a file of F bytes so allocates at most 2F and one chunk,
// however rd splits its reads. what names the kind of file in errors.
func readSealed(rd io.Reader, magic [4]byte, errBadMagic error, what string) (cursor, error) {
	chunk := make([]byte, sealedChunk)
	if _, err := io.ReadFull(rd, chunk[:len(magic)]); err != nil {
		return cursor{}, fmt.Errorf("store: reading %s magic: %w", what, err)
	}
	if [4]byte(chunk) != magic {
		return cursor{}, errBadMagic
	}
	data, err := readChunks(rd, chunk, len(magic))
	if err != nil {
		return cursor{}, fmt.Errorf("store: buffering %s: %w", what, err)
	}
	payload, err := verifyAllBytes(data, what)
	if err != nil {
		return cursor{}, err
	}
	return cursor{data: payload, i: len(magic)}, nil
}

// sealedChunk is the read granularity of readSealed: the chunks a file is
// read into overshoot its length by at most one chunk.
const sealedChunk = checksumBlockSize

// readChunks reads rd to EOF into chunks of len(chunk) bytes, the first
// of which already holds n bytes, and returns everything as one slice: the
// chunk itself when it held the whole input, else one buffer of the exact
// total that the chunks are copied into once.
func readChunks(rd io.Reader, chunk []byte, n int) ([]byte, error) {
	var full [][]byte
	for {
		m, err := io.ReadFull(rd, chunk[n:])
		n += m
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return nil, err
		}
		full = append(full, chunk)
		chunk, n = make([]byte, len(chunk)), 0
	}
	if len(full) == 0 {
		return chunk[:n], nil
	}
	out := make([]byte, 0, len(full)*len(chunk)+n)
	for _, c := range full {
		out = append(out, c...)
	}
	return append(out, chunk[:n]...), nil
}

// readCounts decodes the vertex and edge counts that follow the magic in
// every sealed format, and checks them before anything is sized from them.
func readCounts(c *cursor) (nv, ne uint64, err error) {
	if nv, err = c.field(); err != nil {
		return 0, 0, fmt.Errorf("store: vertex count: %w", err)
	}
	if ne, err = c.field(); err != nil {
		return 0, 0, fmt.Errorf("store: edge count: %w", err)
	}
	if err := checkCounts(nv, ne); err != nil {
		return 0, 0, err
	}
	return nv, ne, nil
}

// checkCounts rejects header counts no valid file can carry before anything
// is sized from them: vertex ids must fit the uint32 VertexID space, and a
// declared edge count beyond what varint encoding could physically fit in
// any file (or that would overflow int) means a corrupt or adversarial
// header rather than a graph.
func checkCounts(nv, ne uint64) error {
	if nv > 1<<32 {
		return fmt.Errorf("store: vertex count %d exceeds uint32 space", nv)
	}
	if ne > 1<<56 {
		return fmt.Errorf("store: edge count %d is implausible (corrupt header?)", ne)
	}
	return nil
}

// readK decodes the partition count CPR2 and CPK2 carry after the counts;
// what names the format in errors.
func readK(c *cursor, what string) (int, error) {
	k, err := c.field()
	if err != nil {
		return 0, fmt.Errorf("store: %s partition count: %w", what, err)
	}
	if k < 1 || k > maxK {
		return 0, fmt.Errorf("store: %s k %d out of range [1, %d]", what, k, maxK)
	}
	return int(k), nil
}

// field decodes one canonical varint, refusing an overlong one. The check
// reads the varint's last byte from the window, which holds the whole
// varint once uvarint returns: a read-at cursor refills at a varint's
// first byte.
func (c *cursor) field() (uint64, error) {
	start := c.abs()
	x, err := c.uvarint()
	if err == nil && c.abs()-start > 1 && c.data[c.i-1] == 0 {
		return 0, errVarintOverlong
	}
	return x, err
}

// str decodes a length-prefixed string of at most maxName bytes.
func (c *cursor) str() (string, error) {
	n, err := c.field()
	if err != nil {
		return "", fmt.Errorf("length: %w", err)
	}
	if n > maxName {
		return "", fmt.Errorf("%d bytes exceed the %d limit", n, maxName)
	}
	buf := make([]byte, n)
	if err := c.readFull(buf); err != nil {
		return "", err
	}
	return string(buf), nil
}
