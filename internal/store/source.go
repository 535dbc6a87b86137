package store

import (
	"io"
	"sync"

	"repro/internal/graph"
	"repro/internal/stream"
)

// File is a compressed graph file opened as a replayable edge source. Both
// sources satisfy it: MmapSource (one mapping, free Reset, with a portable
// read-at fallback) and ReaderAtSource (any io.ReaderAt - the seam the
// fault-injection harness plugs into). Close releases the handle's
// resources.
type File interface {
	stream.Source
	io.Closer
	// Path returns the file the source streams from.
	Path() string
	// Format returns the on-disk encoding (always CGR3).
	Format() Format
	// SizeBytes returns the file size - with Len, the on-disk bytes/edge.
	SizeBytes() int64
	// Verify proves the file's payload against its recorded block CRCs,
	// reporting the first corrupt block as a *CorruptError.
	Verify() error
}

var _ File = (*MmapSource)(nil)
var _ File = (*ReaderAtSource)(nil)

// blockPool recycles the BlockLen decode buffers of source handles: the
// inline block and the decode-ahead ring, 64 KiB each. Close returns them,
// so a file opened once per run (a suite cell, a benchmark iteration)
// reuses the last handle's blocks instead of allocating new ones, and a
// block handed out by the handle's last NextBlock is only valid until the
// handle is closed.
var blockPool = sync.Pool{
	New: func() any {
		b := make([]graph.Edge, stream.BlockLen)
		return &b
	},
}
