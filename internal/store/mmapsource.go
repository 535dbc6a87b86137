package store

import (
	"hash/crc32"
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

// crcAt checksums mapped bytes [lo, hi) in place for verification; in
// fallback mode it reports false.
func (m *mapping) crcAt(lo, hi int64) (uint32, bool) {
	if hi > int64(len(m.data)) {
		return 0, false
	}
	return crc32.Checksum(m.data[lo:hi], castagnoli), true
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
// syscalls on the hot path and no per-handle buffers. Reset is a pointer
// rewind. As a pass decodes, it drops the mapped pages behind it from the
// process's resident set, in steps of releaseStep (on Linux, through
// madvise), and Reset drops the rest. So a run holds about one step of the
// file, not the whole file. The OS page cache still holds the file: a
// repeat pass (the CLUGP passes) maps the same pages again through minor
// faults and pays for decode, not I/O. What falls is the process's
// resident set, not the machine's cached bytes.
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
	s.path, s.size, s.mapped = path, m.size, m.data
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
