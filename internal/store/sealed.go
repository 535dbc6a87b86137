package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// The sealed-file codec: what CGR3 graphs, CPR2 results and CPK2
// checkpoints share. Every file is
//
//	magic | uvarint nv | uvarint ne | format fields | integrity trailer
//
// and the formats differ only in their fields and validation rules. One
// encoder writes the shared header (appendHeader), one reader buffers and
// proves a whole file in chunks (readSealed), one decoder reads the counts
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

// readSealed reads a whole sealed file from rd and returns its payload,
// the magic included. An io.Reader cannot seek to the trailer at EOF, so
// the file is buffered: the magic is checked first, and a file of another
// kind is refused by errBadMagic; the rest is read in fixed chunks, which
// are kept as read rather than assembled into one buffer; and the trailer
// and every payload block are proven before the caller decodes a field,
// so a corrupt file can never be mistaken for a valid one. Reading a file
// of F bytes so allocates F and at most one chunk besides, however rd
// splits its reads. what names the kind of file in errors.
func readSealed(rd io.Reader, magic [4]byte, errBadMagic error, what string) (chunked, error) {
	chunk := make([]byte, sealedChunk)
	if _, err := io.ReadFull(rd, chunk[:len(magic)]); err != nil {
		return chunked{}, fmt.Errorf("store: reading %s magic: %w", what, err)
	}
	if [4]byte(chunk) != magic {
		return chunked{}, errBadMagic
	}
	f, err := readChunks(rd, chunk, len(magic))
	if err != nil {
		return chunked{}, fmt.Errorf("store: buffering %s: %w", what, err)
	}
	return verifyChunked(f, what)
}

// sealedChunk is the read granularity of readSealed. It equals the
// checksum block, so every block of a written file lies in one chunk.
const sealedChunk = checksumBlockSize

// readChunks reads rd to EOF into chunks of len(chunk) bytes, the first
// of which already holds n bytes.
func readChunks(rd io.Reader, chunk []byte, n int) (chunked, error) {
	f := chunked{n: len(chunk)}
	for {
		m, err := io.ReadFull(rd, chunk[n:])
		n += m
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			break
		}
		if err != nil {
			return chunked{}, err
		}
		f.c = append(f.c, chunk)
		chunk, n = make([]byte, len(chunk)), 0
	}
	f.c = append(f.c, chunk[:n])
	f.size = int64(len(f.c)-1)*int64(f.n) + int64(n)
	return f, nil
}

// chunked is a file held in the chunks it was read in: chunk j holds bytes
// [j*n, (j+1)*n), the last one fewer. Only the first size bytes are
// visible, so cutting a file to its payload, or to one range of it, is a
// change of size and copies nothing.
type chunked struct {
	c    [][]byte
	n    int
	size int64
}

// chunk returns the visible bytes of chunk j.
func (f chunked) chunk(j int) []byte {
	return f.c[j][:min(int64(len(f.c[j])), f.size-int64(j)*int64(f.n))]
}

// upTo returns f cut to its first size bytes.
func (f chunked) upTo(size int64) chunked {
	f.size = size
	return f
}

// byteAt returns the byte at off.
func (f chunked) byteAt(off int64) byte {
	return f.c[off/int64(f.n)][off%int64(f.n)]
}

// ReadAt implements io.ReaderAt over the visible bytes; it is how the
// trailer is read.
func (f chunked) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= f.size {
		return 0, io.EOF
	}
	n := 0
	f.each(off, min(f.size, off+int64(len(p))), func(b []byte) { n += copy(p[n:], b) })
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// crcAt implements inMemory: a checksum block is proven in place, chunk
// by chunk.
func (f chunked) crcAt(lo, hi int64) (uint32, bool) {
	if hi > f.size {
		return 0, false
	}
	var crc uint32
	f.each(lo, hi, func(b []byte) { crc = crc32.Update(crc, castagnoli, b) })
	return crc, true
}

// cursor returns a cursor over f's visible bytes, at off. Each chunk is
// the window in turn, with no copy. A varint cut by a chunk's end is read
// from a stitch: the chunk's last bytes, at most binary.MaxVarintLen64 of
// them, and the bytes after them up to twice that, which is more than any
// varint the cursor decodes can need.
func (f chunked) cursor(off int64) cursor {
	var stitch [2 * binary.MaxVarintLen64]byte
	return cursor{base: off, fill: func(c *cursor) error {
		at := c.abs()
		if at >= f.size {
			return io.ErrUnexpectedEOF
		}
		j := int(at / int64(f.n))
		lo := int64(j) * int64(f.n)
		b := f.chunk(j)
		if rest := b[at-lo:]; len(rest) <= binary.MaxVarintLen64 && lo+int64(len(b)) < f.size {
			k := copy(stitch[:], rest)
			for j++; k < len(stitch) && j < len(f.c) && int64(j)*int64(f.n) < f.size; j++ {
				k += copy(stitch[k:], f.chunk(j))
			}
			c.data, c.base, c.i = stitch[:k], at, 0
			return nil
		}
		c.data, c.base, c.i = b, lo, int(at-lo)
		return nil
	}}
}

// each calls fn with the bytes [lo, hi) of f, chunk by chunk.
func (f chunked) each(lo, hi int64, fn func([]byte)) {
	for lo < hi {
		j := int(lo / int64(f.n))
		b := f.upTo(hi).chunk(j)[lo-int64(j)*int64(f.n):]
		fn(b)
		lo += int64(len(b))
	}
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
