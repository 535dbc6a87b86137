package stream

import (
	"io"

	"repro/internal/graph"
)

// Source is a sequential, replayable edge stream with a known vertex count -
// the paper's Definition 1 made into an interface. Edges are delivered in
// runs ("blocks") so consumers iterate a plain slice in their hot loop and
// pay one dynamic call per block instead of one per edge; a View-backed
// source in natural order hands out its base storage in a single zero-copy
// block, while a file-backed source (package store) decodes into a small
// reused buffer, which is what lets partitioners run over graphs that were
// never materialized.
//
// A Source carries one cursor. Consumers that make a pass over the stream
// call Reset first, so a freshly handed-over source always streams from its
// first edge and multi-pass algorithms (the CLUGP passes, restreaming)
// simply Reset between passes. A Source is not safe for concurrent use.
type Source interface {
	// NumVertices returns the vertex count; every edge endpoint is smaller.
	NumVertices() int
	// Len returns the number of edges in one full pass of the stream.
	Len() int
	// Reset rewinds the stream to its first edge.
	Reset() error
	// NextBlock returns the next run of consecutive edges in stream order.
	// The returned slice is only valid until the next NextBlock or Reset
	// call - or until the source is closed, for sources that hold
	// resources (their decode buffers may be recycled on Close) - and must
	// not be mutated or retained. After the last edge it returns
	// (nil, io.EOF).
	NextBlock() ([]graph.Edge, error)
}

// BlockLen is the edge-block granularity sources aim for: large enough to
// amortize the per-block dynamic call and decode setup to nothing, small
// enough (64 KiB of edges) to stay cache- and memory-friendly.
const BlockLen = 8192

// ViewSource adapts a View to Source: a cursor plus the vertex count the
// View itself does not carry. Natural-order views stream their base slice
// as one zero-copy block; permuted views gather each block into an internal
// buffer (allocated once, first use), which costs the same random reads as
// indexed iteration did while letting consumers scan contiguous memory.
type ViewSource struct {
	v   View
	n   int
	pos int
	buf []graph.Edge
}

// Source adapts the view to the Source interface. numVertices must exceed
// every edge endpoint; it is carried verbatim into Source.NumVertices.
func (v View) Source(numVertices int) *ViewSource {
	return &ViewSource{v: v, n: numVertices}
}

// NumVertices implements Source.
func (s *ViewSource) NumVertices() int { return s.n }

// Len implements Source.
func (s *ViewSource) Len() int { return s.v.Len() }

// Reset implements Source. It never fails for in-memory views.
func (s *ViewSource) Reset() error {
	s.pos = 0
	return nil
}

// NextBlock implements Source.
func (s *ViewSource) NextBlock() ([]graph.Edge, error) {
	total := s.v.Len()
	if s.pos >= total {
		return nil, io.EOF
	}
	if s.v.perm == nil {
		blk := s.v.base[s.pos:total]
		s.pos = total
		return blk, nil
	}
	n := total - s.pos
	if n > BlockLen {
		n = BlockLen
	}
	if s.buf == nil {
		s.buf = make([]graph.Edge, BlockLen)
	}
	base, perm := s.v.base, s.v.perm[s.pos:s.pos+n]
	for j, p := range perm {
		s.buf[j] = base[p]
	}
	s.pos += n
	return s.buf[:n], nil
}

// View returns the underlying view, for consumers that can exploit
// in-memory random access (the order-building cache, tests).
func (s *ViewSource) View() View { return s.v }

// ForEach is the canonical consumption loop: it resets the source and
// streams it block by block into fn, passing each block's global edge
// offset (off is the stream index of blk[0], so stream-aligned data like
// assignments index as data[off+i]). It returns the first error from the
// source or from fn. Every pass in the repository goes through it, so the
// Reset/NextBlock/io.EOF contract lives in one place.
func ForEach(src Source, fn func(off int, blk []graph.Edge) error) error {
	if err := src.Reset(); err != nil {
		return err
	}
	off := 0
	for {
		blk, err := src.NextBlock()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(off, blk); err != nil {
			return err
		}
		off += len(blk)
	}
}

// Drain replays the source start to finish, discarding every block, and
// returns the number of edges streamed. It is the pure-decode pass the
// bench suite times to measure a backend's streaming throughput: exactly
// the I/O and decode work of a partitioning pass with the algorithm cost
// subtracted.
func Drain(src Source) (int, error) {
	n := 0
	err := ForEach(src, func(off int, blk []graph.Edge) error {
		n += len(blk)
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// Collect materializes a source into a fresh edge slice, resetting it
// first. It exists for interop and tests; the hot paths iterate blocks.
// The initial capacity is capped: a file source's Len is the edge count
// its header declares, which is untrusted until the edges decode.
func Collect(src Source) ([]graph.Edge, error) {
	out := make([]graph.Edge, 0, min(src.Len(), 1<<20))
	err := ForEach(src, func(off int, blk []graph.Edge) error {
		out = append(out, blk...)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
