package stream

import (
	"fmt"
	"io"

	"repro/internal/graph"
)

// RebatchSource re-blocks any source into fixed-size batches: every
// NextBlock returns exactly batchEdges edges (the final block carries the
// remainder), whatever block shape the base source produces. It is the
// checkpoint-alignment seam of the out-of-core pass (partition package):
// with checkpointing on, every commit must end at a fixed stream offset
// [b*B, (b+1)*B), so that snapshot points exist even when the base hands
// out its whole edge slice as one zero-copy block (a natural-order
// in-memory view does) and so that a resumed run's batch boundaries land
// on the same offsets as an uninterrupted run's, for every decode
// configuration.
//
// When the base block already covers the whole batch the batch is served as
// a zero-copy sub-slice; otherwise edges are staged through an internal
// buffer (allocated once). Like any Source, a RebatchSource carries one
// cursor and is not safe for concurrent use.
type RebatchSource struct {
	base  Source
	batch int
	buf   []graph.Edge
	cur   []graph.Edge // unconsumed tail of the base source's current block
	pos   int          // edges delivered so far this pass
}

// Rebatch wraps src so blocks arrive in runs of batchEdges edges, which
// must be positive (Rebatch panics otherwise). The wrapper shares src's
// cursor: Reset rewinds src.
func Rebatch(src Source, batchEdges int) *RebatchSource {
	if batchEdges < 1 {
		panic(fmt.Sprintf("stream: rebatch: batch of %d edges", batchEdges))
	}
	return &RebatchSource{base: src, batch: batchEdges}
}

// NumVertices implements Source.
func (s *RebatchSource) NumVertices() int { return s.base.NumVertices() }

// Len implements Source.
func (s *RebatchSource) Len() int { return s.base.Len() }

// Reset implements Source.
func (s *RebatchSource) Reset() error {
	s.cur = nil
	s.pos = 0
	return s.base.Reset()
}

// NextBlock implements Source.
func (s *RebatchSource) NextBlock() ([]graph.Edge, error) {
	want := s.base.Len() - s.pos
	if want <= 0 {
		return nil, io.EOF
	}
	if want > s.batch {
		want = s.batch
	}
	// Zero-copy path: the base block already holds the whole batch.
	if len(s.cur) >= want {
		out := s.cur[:want]
		s.cur = s.cur[want:]
		s.pos += want
		return out, nil
	}
	if s.buf == nil {
		s.buf = make([]graph.Edge, 0, s.batch)
	}
	buf := append(s.buf[:0], s.cur...)
	for len(buf) < want {
		blk, err := s.base.NextBlock()
		if err == io.EOF {
			// The base delivered fewer edges than Len promised.
			return nil, fmt.Errorf("stream: rebatch: source ended at edge %d of %d: %w",
				s.pos+len(buf), s.base.Len(), io.ErrUnexpectedEOF)
		}
		if err != nil {
			return nil, err
		}
		take := want - len(buf)
		if take > len(blk) {
			take = len(blk)
		}
		buf = append(buf, blk[:take]...)
		s.cur = blk[take:]
	}
	s.buf = buf
	s.pos += want
	return buf, nil
}
