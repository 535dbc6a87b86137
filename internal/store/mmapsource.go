package store

import (
	"io"
	"os"
	"sync/atomic"

	"repro/internal/stream"
)

// disableMmap forces the read-at fallback; tests set it to exercise the
// portable path on platforms where mapping would succeed.
var disableMmap bool

// mapping is the shared backing of one opened file: the mapped bytes (nil
// when the platform could not map and the source runs on pread) and the
// file handle, reference-counted so the root source and every segment can
// be closed in any order. The last Close unmaps and closes the file.
type mapping struct {
	refs atomic.Int64
	data []byte
	f    *os.File
	size int64
}

func (m *mapping) retain() { m.refs.Add(1) }

func (m *mapping) release() error {
	if m.refs.Add(-1) != 0 {
		return nil
	}
	var err error
	if m.data != nil {
		err = munmapFile(m.data)
		m.data = nil
	}
	if cerr := m.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// cursor returns a fresh decode cursor over the first limit bytes of the
// mapping (the checksummed payload): the mapped bytes
// directly (zero-copy; every seek is a pointer rewind) or, in fallback
// mode, a private read window over the shared handle via pread.
func (m *mapping) cursor(limit int64) cursor {
	if m.data != nil {
		return mappedCursor(m.data[:limit])
	}
	return readAtCursor(m.f, limit)
}

// ReadAt serves raw file bytes from the mapping (or the shared handle in
// fallback mode) - the verification reader of the integrity checks.
func (m *mapping) ReadAt(p []byte, off int64) (int, error) {
	if m.data == nil {
		return m.f.ReadAt(p, off)
	}
	if off < 0 || off >= int64(len(m.data)) {
		return 0, io.EOF
	}
	n := copy(p, m.data[off:])
	if n < len(p) {
		return n, io.EOF
	}
	return n, nil
}

// MmapSource streams a CGR3 file as a stream.Source by
// mapping it once and decoding straight from the mapped bytes: no read
// syscalls on the hot path, no per-handle buffers, and the OS page cache
// serves repeat passes - Reset is a pointer rewind, so multi-pass
// algorithms (the three CLUGP passes) pay for decode, not I/O.
//
// Segment(lo, hi) shares the mapping instead of reopening the file: a
// segment costs a checkpoint lookup plus a roll-forward decode, and any
// number of segments stream concurrently from the same pages. The mapping
// is reference-counted across the root and all segments, so handles may be
// closed in any order; each must be closed exactly when its consumer is
// done.
//
// Where the platform cannot map (or disableMmap is set), the source runs
// in a portable read-at mode: same contract, same shared handle, but each
// cursor reads through a private window via pread. Mapped reports which
// mode is active.
//
// An MmapSource is not safe for concurrent use; concurrent consumers each
// take their own Segment.
type MmapSource struct {
	segCore
	m    *mapping
	root *MmapSource
}

// OpenMmap opens path (a file written by Write or WriteFormat) as an
// mmap-backed source. The magic, header and integrity trailer are
// validated eagerly; payload blocks verify lazily as edges decode. Mapping
// failure is not an error: the source transparently falls back to read-at
// mode, so OpenMmap only fails when the file itself cannot be opened or is
// not a valid CGR3 file.
func OpenMmap(path string) (*MmapSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	m := &mapping{f: f, size: fi.Size()}
	if !disableMmap {
		if data, err := mmapFile(f, m.size); err == nil {
			m.data = data
		}
	}
	s := &MmapSource{m: m}
	m.retain()
	s.path, s.size = path, m.size
	if err := s.initIntegrity(m); err != nil {
		s.Close()
		return nil, err
	}
	pay := s.payLimit()
	s.dec.cur = m.cursor(pay)
	// Index scans decode through their own cursor over the shared mapping;
	// segments keep the mapping alive, so the scan needs no reopen.
	s.newScanCursor = func() (cursor, func(), error) {
		return m.cursor(pay), nil, nil
	}
	if err := s.initHeader(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Mapped reports whether the source decodes from a memory mapping (true)
// or through the portable read-at fallback (false).
func (s *MmapSource) Mapped() bool { return s.m.data != nil }

// Segment implements stream.Segmenter by sharing the mapping: no reopen,
// no new file handle - the segment gets its own cursor positioned via the
// shared checkpoint index plus a roll-forward decode to edge lo exactly.
// lo and hi are relative to this source, so segments nest. Close each
// segment when done; the underlying mapping lives until the last handle
// over it is closed.
func (s *MmapSource) Segment(lo, hi int) (stream.Source, error) {
	root := s.rootSource()
	seg := &MmapSource{m: s.m, root: root}
	seg.raw = s.m
	seg.dec.cur = s.m.cursor(s.payLimit())
	if err := s.segmentWindow(&root.segCore, &seg.segCore, lo, hi); err != nil {
		return nil, err
	}
	s.m.retain()
	return seg, nil
}

func (s *MmapSource) rootSource() *MmapSource {
	if s.root != nil {
		return s.root
	}
	return s
}

// Close releases this handle's reference on the shared mapping and returns
// its decode buffer to the pool, invalidating the last NextBlock's slice.
// The mapping itself (and the underlying file) is released when the last
// handle over it - root or segment - is closed. Close is idempotent per
// handle.
func (s *MmapSource) Close() error {
	if !s.markClosed() {
		return nil
	}
	return s.m.release()
}
