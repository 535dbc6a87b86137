package store

import (
	"fmt"
	"io"
	"os"
	"sync"

	"repro/internal/graph"
	"repro/internal/stream"
)

// segCore is the streaming state machine shared by both sources:
// the cursor-positioned decoder, the [lo,hi) segment window, the captured
// resume point that makes Reset a seek, and the lazily built checkpoint
// index segments are opened through. Backends differ only in how cursors
// and OS resources are obtained, which they express through newScanCursor
// (for the index scan) and their own Segment/Close methods.
type segCore struct {
	path   string
	size   int64
	dec    decoder
	closed bool

	nv int
	ne int

	// Segment bounds in global edge indices; a root source spans [0, ne).
	lo, hi int
	// Decoder state at edge lo, captured once so Reset is a cursor seek.
	startOff int64
	startSt  decState

	pos int // global index of the next edge to decode
	buf *[]graph.Edge

	// Integrity state: integ is the parsed trailer plus the verified-block
	// bitmap, shared by the root and every segment so each block is proven
	// once; raw is this handle's own raw byte access for verification
	// reads.
	integ *integrity
	raw   io.ReaderAt

	// Checkpoint index, owned by the root and shared by all segments.
	// idx[i] is the decoder state before edge i*indexStride. newScanCursor
	// returns a private cursor for extending it (plus optional cleanup);
	// it must never disturb any streaming cursor.
	idxMu         sync.Mutex
	idx           []checkpoint
	idxDone       bool
	newScanCursor func() (cursor, func(), error)
}

// indexStride is the edge spacing of seek checkpoints: fine enough that a
// segment open decodes at most a few thousand throwaway edges, coarse
// enough that the index is ~1000x smaller than the edges it indexes.
const indexStride = 4096

// checkpoint is a resume point: the byte offset of the next token and the
// full delta-decoder state before edge i*indexStride.
type checkpoint struct {
	off int64
	st  decState
}

// initIntegrity checks the magic through r, then eagerly parses and
// validates the integrity trailer (footer magic, trailer CRC, block
// geometry); the payload blocks verify lazily on the decode path. r becomes
// the handle's verification reader. Must run before the decode cursor is
// built: the cursor's byte bound is the payload length the trailer
// records.
func (s *segCore) initIntegrity(r io.ReaderAt) error {
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
// primes the root state (full range, first checkpoint).
func (s *segCore) initHeader() error {
	nv, ne, err := readHeader(&s.dec.cur)
	if err != nil {
		return fmt.Errorf("store: %s: %w", s.path, err)
	}
	s.dec.nv = int64(nv)
	s.dec.ne = int64(ne)
	s.nv, s.ne = nv, ne
	s.hi = s.ne
	s.startOff = s.dec.cur.abs()
	s.idx = append(s.idx, checkpoint{off: s.startOff})
	return nil
}

// payLimit is the byte bound decode cursors run under: the checksummed
// payload (the trailer must never enter a decode window).
func (s *segCore) payLimit() int64 { return s.integ.payloadLen }

// Verify proves every payload block against its recorded CRC32C, in order,
// reporting the first corrupt block. Blocks already proven by the lazy
// decode path are not re-read.
func (s *segCore) Verify() error {
	if s.closed {
		return fmt.Errorf("store: %s: %w", s.path, os.ErrClosed)
	}
	return s.integ.verifyAll(s.raw)
}

// NumVertices implements stream.Source.
func (s *segCore) NumVertices() int { return s.nv }

// Len implements stream.Source: the edge count of this source's range.
func (s *segCore) Len() int { return s.hi - s.lo }

// Path returns the file the source streams from.
func (s *segCore) Path() string { return s.path }

// Format returns the on-disk encoding.
func (s *segCore) Format() Format { return FormatCGR3 }

// SizeBytes returns the on-disk file size.
func (s *segCore) SizeBytes() int64 { return s.size }

// Reset implements stream.Source: the decoder state at the segment's first
// edge was captured when the source was opened, so Reset is a cursor seek
// (a pointer rewind when the offset is inside the mapping or window).
func (s *segCore) Reset() error {
	if s.closed {
		return fmt.Errorf("store: %s: %w", s.path, os.ErrClosed)
	}
	s.dec.seek(s.startOff, s.startSt)
	s.pos = s.lo
	return nil
}

// NextBlock implements stream.Source, decoding up to stream.BlockLen edges
// into a pooled buffer. The byte range the block decoded from is proven
// against its CRCs before the block is returned, and a stream that ends at
// the file's last edge proves every remaining block at EOF - so completing
// the stream certifies the whole payload, and no block built from corrupt
// bytes is ever handed out.
func (s *segCore) NextBlock() ([]graph.Edge, error) {
	if s.pos >= s.hi {
		if s.hi == s.ne && !s.closed {
			if err := s.integ.verifyAll(s.raw); err != nil {
				return nil, err
			}
		}
		return nil, io.EOF
	}
	if s.closed {
		return nil, fmt.Errorf("store: %s: %w", s.path, os.ErrClosed)
	}
	if s.buf == nil {
		s.buf = blockPool.Get().(*[]graph.Edge)
	}
	buf := *s.buf
	n := s.hi - s.pos
	if n > stream.BlockLen {
		n = stream.BlockLen
	}
	from := s.dec.cur.abs()
	for j := 0; j < n; j++ {
		e, err := s.dec.next(s.pos + j)
		if err != nil {
			return nil, err
		}
		buf[j] = e
	}
	if err := s.integ.verifyRange(s.raw, from, s.dec.cur.abs()); err != nil {
		return nil, err
	}
	s.pos += n
	return buf[:n], nil
}

// segmentWindow validates [lo,hi) relative to this source and positions
// seg - a fresh core whose cursor is already constructed by the backend -
// at global edge lo exactly: seek to the nearest root checkpoint, roll
// forward, capture the resume point. root is the core that owns the
// checkpoint index.
func (s *segCore) segmentWindow(root, seg *segCore, lo, hi int) error {
	if s.closed {
		return fmt.Errorf("store: %s: %w", s.path, os.ErrClosed)
	}
	if lo < 0 || hi < lo || hi > s.Len() {
		return fmt.Errorf("store: %s: segment [%d,%d) out of range (len %d)", s.path, lo, hi, s.Len())
	}
	glo, ghi := s.lo+lo, s.lo+hi
	cp, cpEdge, err := root.checkpointFor(glo)
	if err != nil {
		return err
	}
	seg.path, seg.size = s.path, s.size
	seg.nv, seg.ne = s.nv, s.ne
	seg.lo, seg.hi = glo, ghi
	seg.integ = s.integ
	seg.dec.nv, seg.dec.ne = s.dec.nv, s.dec.ne
	seg.dec.seek(cp.off, cp.st)
	// Roll forward from the checkpoint to the segment's first edge so Reset
	// becomes a plain seek afterwards.
	for i := cpEdge; i < glo; i++ {
		if _, err := seg.dec.next(i); err != nil {
			return err
		}
	}
	// The roll-forward fixed the segment's resume point from these bytes;
	// prove them before any edge positioned by them is served.
	if err := seg.integ.verifyRange(seg.raw, cp.off, seg.dec.cur.abs()); err != nil {
		return err
	}
	seg.startOff = seg.dec.cur.abs()
	seg.startSt = seg.dec.st
	seg.pos = glo
	return nil
}

// checkpointFor returns the densest checkpoint at or before the global edge
// index, extending the index with a sequential scan if it does not reach
// that far yet. Must be called on the root core.
func (s *segCore) checkpointFor(edge int) (checkpoint, int, error) {
	s.idxMu.Lock()
	defer s.idxMu.Unlock()
	want := edge / indexStride
	if want >= len(s.idx) && !s.idxDone {
		if err := s.extendIndexLocked(want); err != nil {
			return checkpoint{}, 0, err
		}
	}
	if want >= len(s.idx) {
		want = len(s.idx) - 1
	}
	return s.idx[want], want * indexStride, nil
}

// extendIndexLocked scans forward from the last checkpoint until the index
// holds entry target (or the stream ends), recording a checkpoint every
// indexStride edges. The scan decodes through a private cursor from
// newScanCursor. Called with idxMu held.
func (s *segCore) extendIndexLocked(target int) error {
	cur, cleanup, err := s.newScanCursor()
	if err != nil {
		return err
	}
	if cleanup != nil {
		defer cleanup()
	}
	d := decoder{cur: cur, nv: s.dec.nv, ne: s.dec.ne}
	last := s.idx[len(s.idx)-1]
	d.seek(last.off, last.st)
	for i := (len(s.idx) - 1) * indexStride; len(s.idx) <= target; i++ {
		if i >= s.ne {
			s.idxDone = true
			return nil
		}
		if _, err := d.next(i); err != nil {
			return err
		}
		if (i+1)%indexStride == 0 {
			s.idx = append(s.idx, checkpoint{off: d.cur.abs(), st: d.st})
		}
	}
	return nil
}

// markClosed flips the handle closed and returns its decode buffer to the
// pool; it reports whether this call was the one that closed the handle.
// Closing invalidates any block the last NextBlock handed out (the buffer
// may be recycled to another source immediately).
func (s *segCore) markClosed() bool {
	if s.closed {
		return false
	}
	s.closed = true
	if s.buf != nil {
		blockPool.Put(s.buf)
		s.buf = nil
	}
	return true
}
