package store

import "io"

// ReaderAtSource streams a CGR3 file from an arbitrary io.ReaderAt: the
// same decode core, decode ahead and lazy integrity verification as
// MmapSource, over bytes the caller provides. This is the seam the
// fault-injection harness (internal/faultfs) plugs into - an injecting
// ReaderAt slides under the unchanged File interface, so every conformance
// and bit-equivalence matrix can run with faults injected beneath it - and
// it also serves in-memory buffers (byteReaderAt) without temp files.
//
// The source does not own the ReaderAt: Close releases only the handle's
// decode buffers, and the caller keeps whatever resource backs r alive
// until the handle is done. ReadAt must be safe for concurrent calls, as
// os.File and bytes.Reader are: the decode-ahead goroutine reads through
// it while the consumer may call Verify.
type ReaderAtSource struct {
	fileCore
}

// OpenReaderAt opens the first size bytes of r as a graph source. name is
// used in error messages and Path only. The input gets the same eager
// trailer validation and lazy payload verification as OpenMmap.
func OpenReaderAt(r io.ReaderAt, size int64, name string) (*ReaderAtSource, error) {
	s := &ReaderAtSource{}
	s.path, s.size = name, size
	if err := s.initIntegrity(r); err != nil {
		return nil, err
	}
	s.dec.cur = readAtCursor(r, s.payLimit())
	if err := s.initHeader(); err != nil {
		return nil, err
	}
	return s, nil
}

// Close returns the handle's decode buffers to the pool and marks it
// closed; the underlying ReaderAt belongs to the caller and is left open.
// Close is idempotent.
func (s *ReaderAtSource) Close() error {
	s.markClosed()
	return nil
}
