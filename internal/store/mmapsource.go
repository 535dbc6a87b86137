package store

import (
	"io"
	"os"
)

// disableMmap forces the read-at fallback; tests set it to exercise the
// portable path on platforms where mapping would succeed.
var disableMmap bool

// mapping is the backing of one opened file: the mapped bytes (nil when
// the platform could not map and the source runs on pread) and the file
// handle.
type mapping struct {
	data []byte
	f    *os.File
	size int64
}

// close unmaps the file and closes its handle.
func (m *mapping) close() error {
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

// cursor returns a decode cursor over the first limit bytes of the mapping
// (the checksummed payload): the mapped bytes directly (zero-copy; every
// seek is a pointer rewind) or, in fallback mode, a read window over the
// handle via pread.
func (m *mapping) cursor(limit int64) cursor {
	if m.data != nil {
		return mappedCursor(m.data[:limit])
	}
	return readAtCursor(m.f, limit)
}

// bytesAt returns mapped bytes [lo, hi) for in-place verification, or nil
// in fallback mode.
func (m *mapping) bytesAt(lo, hi int64) []byte {
	if hi > int64(len(m.data)) {
		return nil
	}
	return m.data[lo:hi]
}

// ReadAt serves raw file bytes from the mapping (or the handle in fallback
// mode) - the verification reader of the integrity checks.
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
// Where the platform cannot map (or disableMmap is set), the source runs
// in a portable read-at mode: same contract, but the cursor reads through
// a window via pread. Mapped reports which mode is active.
//
// An MmapSource is not safe for concurrent use.
type MmapSource struct {
	fileCore
	m *mapping
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
	s.path, s.size = path, m.size
	if err := s.initIntegrity(m); err != nil {
		s.Close()
		return nil, err
	}
	s.dec.cur = m.cursor(s.payLimit())
	if err := s.initHeader(); err != nil {
		s.Close()
		return nil, err
	}
	return s, nil
}

// Mapped reports whether the source decodes from a memory mapping (true)
// or through the portable read-at fallback (false).
func (s *MmapSource) Mapped() bool { return s.m.data != nil }

// Close unmaps the file, closes it and returns the decode buffers to the
// pool, invalidating the last NextBlock's slice. Close is idempotent.
func (s *MmapSource) Close() error {
	if !s.markClosed() {
		return nil
	}
	return s.m.close()
}
