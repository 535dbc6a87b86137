package store

import (
	"fmt"
	"io"
	"os"

	"repro/internal/graph"
	"repro/internal/stream"
)

// fileCore is the streaming state machine shared by both sources: the
// cursor-positioned decoder, the offset of the first edge that makes Reset
// a seek, the decode-ahead ring and the integrity state. Backends differ
// only in how the cursor and the raw byte access are obtained and in what
// Close releases.
type fileCore struct {
	path   string
	size   int64
	dec    decoder
	closed bool

	nv int
	ne int

	// startOff is the byte offset of the first edge, so Reset is a cursor
	// seek.
	startOff int64

	pos int // index of the next edge handed to the consumer
	buf *[]graph.Edge

	// Decode ahead (ahead.go): run is the decode goroutine while it is
	// live, and ring holds the blocks it decodes into.
	run  *aheadRun
	ring [aheadDepth + 1]*[]graph.Edge

	// Integrity state: integ is the parsed trailer plus the verified-block
	// bitmap, so each block is proven once; raw is the handle's raw byte
	// access for verification reads.
	integ *integrity
	raw   io.ReaderAt
}

// initIntegrity checks the magic through r, then eagerly parses and
// validates the integrity trailer (footer magic, trailer CRC, block
// geometry); the payload blocks verify lazily on the decode path. r becomes
// the handle's verification reader. Must run before the decode cursor is
// built: the cursor's byte bound is the payload length the trailer
// records.
func (s *fileCore) initIntegrity(r io.ReaderAt) error {
	var head [4]byte
	if err := readFullAt(r, head[:], 0); err != nil {
		return fmt.Errorf("store: %s: reading magic: %w", s.path, err)
	}
	if head != magic3 {
		return fmt.Errorf("store: %s: %w", s.path, ErrBadMagic)
	}
	g, err := parseTrailer(r, s.size, s.path)
	if err != nil {
		return err
	}
	s.integ, s.raw = g, r
	return nil
}

// initHeader reads and validates the header through the core's cursor and
// records where the first edge starts.
func (s *fileCore) initHeader() error {
	nv, ne, err := readHeader(&s.dec.cur)
	if err != nil {
		return fmt.Errorf("store: %s: %w", s.path, err)
	}
	s.dec.nv = int64(nv)
	s.dec.ne = int64(ne)
	s.nv, s.ne = nv, ne
	s.startOff = s.dec.cur.abs()
	return nil
}

// payLimit is the byte bound decode cursors run under: the checksummed
// payload (the trailer must never enter a decode window).
func (s *fileCore) payLimit() int64 { return s.integ.payloadLen }

// Verify proves every payload block against its recorded CRC32C, in order,
// reporting the first corrupt block. Blocks already proven by the lazy
// decode path are not re-read.
func (s *fileCore) Verify() error {
	if s.closed {
		return fmt.Errorf("store: %s: %w", s.path, os.ErrClosed)
	}
	return s.integ.verifyAll(s.raw)
}

// NumVertices implements stream.Source.
func (s *fileCore) NumVertices() int { return s.nv }

// Len implements stream.Source: the edge count the header declares.
func (s *fileCore) Len() int { return s.ne }

// Path returns the file the source streams from.
func (s *fileCore) Path() string { return s.path }

// Format returns the on-disk encoding.
func (s *fileCore) Format() Format { return FormatCGR3 }

// SizeBytes returns the on-disk file size.
func (s *fileCore) SizeBytes() int64 { return s.size }

// Reset implements stream.Source: the first edge's offset was recorded when
// the source was opened, so Reset is a cursor seek (a pointer rewind when
// the offset is inside the mapping or window).
func (s *fileCore) Reset() error {
	if s.closed {
		return fmt.Errorf("store: %s: %w", s.path, os.ErrClosed)
	}
	s.stopAhead()
	s.dec.seek(s.startOff, decState{})
	s.pos = 0
	return nil
}

// NextBlock implements stream.Source, decoding up to stream.BlockLen edges
// into a pooled buffer - inline, or with a second CPU ahead of the
// consumer (ahead.go); either way the blocks, and the call
// that reports an error, are the same. The returned block stays valid
// until the next NextBlock, Reset or Close.
func (s *fileCore) NextBlock() ([]graph.Edge, error) {
	if s.closed {
		if s.pos >= s.ne {
			return nil, io.EOF
		}
		return nil, fmt.Errorf("store: %s: %w", s.path, os.ErrClosed)
	}
	if s.aheadOn() {
		return s.nextAhead()
	}
	if s.buf == nil {
		s.buf = blockPool.Get().(*[]graph.Edge)
	}
	blk, err := s.decodeNext(*s.buf, s.pos)
	s.pos += len(blk)
	return blk, err
}

// decodeNext decodes the block that starts at edge pos into buf, the one
// decode loop behind both NextBlock paths. The byte range the block
// decoded from is proven against its CRCs before the block is returned,
// and the stream proves every remaining block at EOF - so completing the
// stream certifies the whole payload, and no block built from corrupt
// bytes is ever handed out.
func (s *fileCore) decodeNext(buf []graph.Edge, pos int) ([]graph.Edge, error) {
	if pos >= s.ne {
		if err := s.integ.verifyAll(s.raw); err != nil {
			return nil, err
		}
		return nil, io.EOF
	}
	n := min(s.ne-pos, stream.BlockLen)
	from := s.dec.cur.abs()
	if err := s.dec.decodeBlock(buf[:n], pos); err != nil {
		return nil, err
	}
	if err := s.integ.verifyRange(s.raw, from, s.dec.cur.abs()); err != nil {
		return nil, err
	}
	return buf[:n], nil
}

// markClosed stops any decode goroutine, flips the handle closed and
// returns its decode buffers to the pool; it reports whether this call was
// the one that closed the handle. Closing invalidates any block the last
// NextBlock handed out (the buffer may be recycled to another source
// immediately).
func (s *fileCore) markClosed() bool {
	if s.closed {
		return false
	}
	s.stopAhead()
	s.closed = true
	if s.buf != nil {
		blockPool.Put(s.buf)
		s.buf = nil
	}
	for i, b := range s.ring {
		if b != nil {
			blockPool.Put(b)
			s.ring[i] = nil
		}
	}
	return true
}
