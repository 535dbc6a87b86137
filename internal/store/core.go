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

	// mapped is the file's read-only mapping when the source decodes from
	// one (nil otherwise); released is the offset below which the current
	// pass has dropped the mapping's pages (releaseBelow). released belongs
	// to whichever goroutine owns the decoder.
	mapped   []byte
	released int64
}

// releaseStep is the granularity at which a pass drops the mapped pages it
// has decoded: the mapping's resident part stays near one step plus a
// block, and a pass over an n-byte file makes n/releaseStep madvise calls.
// (The step's measurement is in DESIGN.md, "Releasing the mapped input".)
const releaseStep = 1 << 18

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

// initHeader reads and validates the counts through the core's cursor,
// past the magic initIntegrity checked, and records where the first edge
// starts.
func (s *fileCore) initHeader() error {
	s.dec.cur.seek(int64(len(magic3)))
	if err := s.dec.readHeader(); err != nil {
		return fmt.Errorf("store: %s: %w", s.path, err)
	}
	s.nv, s.ne = int(s.dec.nv), int(s.dec.ne)
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
// the offset is inside the mapping or window). It drops the rest of the
// mapping's pages, so a stopped pass leaves none resident.
func (s *fileCore) Reset() error {
	if s.closed {
		return fmt.Errorf("store: %s: %w", s.path, os.ErrClosed)
	}
	s.stopAhead()
	s.dec.seek(s.startOff, decState{})
	s.pos = 0
	releaseMapped(s.mapped)
	s.released = 0
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
	s.releaseBelow(from &^ (releaseStep - 1))
	return buf[:n], nil
}

// releaseBelow drops the mapped pages in [released, off) from the process's
// resident set. The page cache keeps the file, so a later pass re-reads
// the same bytes through minor faults. off is at most the start of the
// block just decoded, rounded down to a step (a multiple of the page and
// of the checksum block), so the pass never reads a dropped page again.
func (s *fileCore) releaseBelow(off int64) {
	if s.mapped != nil && off > s.released {
		releaseMapped(s.mapped[s.released:off])
		s.released = off
	}
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
