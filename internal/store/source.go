package store

import (
	"io"
	"sync"

	"repro/internal/graph"
	"repro/internal/stream"
)

// File is a compressed graph file opened as a replayable, segmentable edge
// source. Both sources satisfy it: MmapSource (one shared mapping, free
// Reset/Segment, with a portable read-at fallback) and ReaderAtSource (any
// io.ReaderAt - the seam the fault-injection harness plugs into). Close
// releases the handle's resources; segments are themselves Files and must
// be closed independently.
type File interface {
	stream.Segmenter
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

// blockPool recycles the BlockLen decode buffers that every source handle
// needs: segments are opened per shard per run, and a fresh 64 KiB block
// per handle was measurable churn on concurrent ingest. Close returns the
// buffer, so a block handed out by the handle's last NextBlock is only
// valid until the handle is closed.
var blockPool = sync.Pool{
	New: func() any {
		b := make([]graph.Edge, stream.BlockLen)
		return &b
	},
}
