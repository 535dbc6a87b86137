package store

import (
	"io"

	"repro/internal/stream"
)

// ReaderAtSource streams a CGR3 file from an arbitrary io.ReaderAt: the
// same decode core, checkpoint index, segmenting and lazy integrity
// verification as MmapSource, over bytes the caller
// provides. This is the seam the fault-injection harness (internal/faultfs)
// plugs into - an injecting ReaderAt slides under the unchanged File
// interface, so every conformance and bit-equivalence matrix can run with
// faults injected beneath it - and it also serves in-memory buffers
// (byteReaderAt) without temp files.
//
// The source does not own the ReaderAt: Close releases only the handle's
// decode buffer, and the caller keeps whatever resource backs r alive until
// every handle (root and segments) is done. ReadAt must be safe for
// concurrent calls, as os.File and bytes.Reader are.
type ReaderAtSource struct {
	segCore
	r    io.ReaderAt
	root *ReaderAtSource
}

// OpenReaderAt opens the first size bytes of r as a graph source. name is
// used in error messages and Path only. The input gets the same eager
// trailer validation and lazy payload verification as OpenMmap.
func OpenReaderAt(r io.ReaderAt, size int64, name string) (*ReaderAtSource, error) {
	s := &ReaderAtSource{r: r}
	s.path, s.size = name, size
	s.isRoot = true
	if err := s.initIntegrity(r); err != nil {
		return nil, err
	}
	pay := s.payLimit()
	s.dec.cur = readAtCursor(r, pay)
	s.newScanCursor = func() (cursor, func(), error) {
		return readAtCursor(r, pay), nil, nil
	}
	if err := s.initHeader(); err != nil {
		return nil, err
	}
	return s, nil
}

// Segment implements stream.Segmenter: the segment shares the ReaderAt
// (ReadAt is stateless) with its own cursor, positioned via the shared
// checkpoint index. lo and hi are relative to this source, so segments
// nest. Close each segment when its consumer is done.
func (s *ReaderAtSource) Segment(lo, hi int) (stream.Source, error) {
	root := s.rootSource()
	seg := &ReaderAtSource{r: s.r, root: root}
	seg.raw = s.r
	seg.dec.cur = readAtCursor(s.r, s.payLimit())
	if err := s.segmentWindow(&root.segCore, &seg.segCore, lo, hi); err != nil {
		return nil, err
	}
	return seg, nil
}

func (s *ReaderAtSource) rootSource() *ReaderAtSource {
	if s.root != nil {
		return s.root
	}
	return s
}

// Close returns the handle's decode buffer to the pool and marks it closed;
// the underlying ReaderAt belongs to the caller and is left open. Close is
// idempotent.
func (s *ReaderAtSource) Close() error {
	s.markClosed()
	return nil
}
