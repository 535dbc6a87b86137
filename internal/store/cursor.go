package store

import (
	"encoding/binary"
	"errors"
	"io"
)

// errVarintOverflow reports a varint whose encoding exceeds 64 bits - only
// corrupt or adversarial input contains one, since every writer emits
// canonical encodings.
var errVarintOverflow = errors.New("store: varint overflows 64 bits")

// cursor is the zero-copy decode window every source in this package reads
// through. It decodes varints directly from a byte slice with index
// arithmetic - no bufio, no per-byte interface calls - and abstracts where
// the bytes come from behind a single refill hook:
//
//   - mapped mode (fill == nil): data is the complete input (an mmap'd file
//     or an in-memory buffer). Every operation is pure slice indexing; seek
//     is a pointer rewind.
//   - read-at mode: data is a private window into an io.ReaderAt; fill
//     reloads the window at the cursor's absolute offset via one pread.
//     Seek within the window is free, outside it costs one refill.
//
// Varint decodes are atomic with respect to the cursor: a varint that runs
// past the window consumes nothing, the window is refilled at the varint's
// first byte, and the decode retries. A varint that runs past the *input*
// surfaces io.ErrUnexpectedEOF.
type cursor struct {
	data []byte // current window
	i    int    // index of the next byte within data
	base int64  // absolute input offset of data[0]
	// fill makes more bytes visible at the cursor's absolute offset, or
	// returns an error (io.ErrUnexpectedEOF at end of input). nil means data
	// is already the whole input.
	fill func(*cursor) error
}

// windowLen is the refill granularity of the read-at mode: large enough
// that refills are rare and sequential reads reach disk bandwidth, small
// enough that a per-handle window is cheap.
const windowLen = 1 << 16

// abs returns the absolute input offset of the next byte.
func (c *cursor) abs() int64 { return c.base + int64(c.i) }

// seek positions the cursor at absolute offset off. Inside the current
// window it is a pointer rewind; outside, the window is invalidated and the
// next read refills at off.
func (c *cursor) seek(off int64) {
	if rel := off - c.base; rel >= 0 && rel <= int64(len(c.data)) {
		c.i = int(rel)
		return
	}
	c.base = off
	c.data = c.data[:0]
	c.i = 0
}

// uvarint decodes one unsigned varint, refilling the window as needed.
func (c *cursor) uvarint() (uint64, error) {
	for {
		x, n := binary.Uvarint(c.data[c.i:])
		if n > 0 {
			c.i += n
			return x, nil
		}
		if n < 0 {
			return 0, errVarintOverflow
		}
		// The varint runs past the window. Refill at its first byte and
		// retry; no progress means the input itself is truncated.
		avail := len(c.data) - c.i
		if c.fill == nil {
			return 0, io.ErrUnexpectedEOF
		}
		if err := c.fill(c); err != nil {
			return 0, err
		}
		if len(c.data)-c.i <= avail {
			return 0, io.ErrUnexpectedEOF
		}
	}
}

// varint decodes one zig-zag signed varint.
func (c *cursor) varint() (int64, error) {
	u, err := c.uvarint()
	if err != nil {
		return 0, err
	}
	return unzigzag(u), nil
}

// readFull fills p exactly, refilling the window as needed.
func (c *cursor) readFull(p []byte) error {
	done := 0
	for done < len(p) {
		n := copy(p[done:], c.data[c.i:])
		c.i += n
		done += n
		if done == len(p) {
			return nil
		}
		if c.fill == nil {
			return io.ErrUnexpectedEOF
		}
		avail := len(c.data) - c.i
		if err := c.fill(c); err != nil {
			return err
		}
		if len(c.data)-c.i <= avail {
			return io.ErrUnexpectedEOF
		}
	}
	return nil
}

// mappedCursor returns a cursor over a complete in-memory input.
func mappedCursor(data []byte) cursor {
	return cursor{data: data}
}

// readAtCursor returns a cursor windowing r via pread. ReadAt is stateless
// with respect to any file offset, so any number of cursors can share one
// *os.File. size bounds the input; reads at or past it report truncation,
// and the window is clamped to size so bytes past the bound (a checksummed
// file's trailer) never become visible to the decoder.
func readAtCursor(r io.ReaderAt, size int64) cursor {
	win := make([]byte, windowLen)
	return cursor{fill: func(c *cursor) error {
		off := c.abs()
		if off >= size {
			return io.ErrUnexpectedEOF
		}
		w := win
		if max := size - off; max < int64(len(w)) {
			w = w[:max]
		}
		n, err := r.ReadAt(w, off)
		if n <= 0 {
			if err != nil && err != io.EOF {
				return err
			}
			return io.ErrUnexpectedEOF
		}
		c.data, c.base, c.i = w[:n], off, 0
		return nil
	}}
}

// zigzag maps a signed delta to the unsigned value its varint encodes
// (LSB is the sign), the same mapping encoding/binary's PutVarint uses.
func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

// unzigzag inverts zigzag.
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }
