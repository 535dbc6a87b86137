package stream

import (
	"errors"
	"io"
	"testing"

	"repro/internal/graph"
)

// chunkSource serves a fixed edge slice in caller-chosen block sizes,
// cycling through shapes - the adversarial upstream for Rebatch.
type chunkSource struct {
	edges  []graph.Edge
	shapes []int
	pos    int
	next   int
	// short, when set, under-reports by ending the stream early.
	short int
}

func (s *chunkSource) NumVertices() int { return 100 }
func (s *chunkSource) Len() int         { return len(s.edges) }
func (s *chunkSource) Reset() error     { s.pos, s.next = 0, 0; return nil }
func (s *chunkSource) NextBlock() ([]graph.Edge, error) {
	end := len(s.edges) - s.short
	if s.pos >= end {
		return nil, io.EOF
	}
	n := s.shapes[s.next%len(s.shapes)]
	s.next++
	if n > end-s.pos {
		n = end - s.pos
	}
	blk := s.edges[s.pos : s.pos+n]
	s.pos += n
	return blk, nil
}

// TestRebatchFixedBoundaries: whatever block shapes the base produces -
// one giant block, tiny ragged blocks, exact multiples - Rebatch must
// deliver the same edges in batches of exactly B (remainder last), across
// multiple Reset passes.
func TestRebatchFixedBoundaries(t *testing.T) {
	edges := seqEdges(1000)
	shapes := [][]int{
		{len(edges)},    // one zero-copy giant block (natural-order views)
		{1},             // degenerate
		{3, 17, 1, 250}, // ragged
		{64},            // divides the batch
		{96},            // straddles batches
	}
	for _, batch := range []int{1, 7, 64, 256, 1000, 2048} {
		for si, shape := range shapes {
			src := &chunkSource{edges: edges, shapes: shape}
			rb := Rebatch(src, batch)
			if rb.Len() != len(edges) || rb.NumVertices() != 100 {
				t.Fatalf("passthrough metadata wrong")
			}
			for pass := 0; pass < 2; pass++ {
				var got []graph.Edge
				blocks := 0
				err := ForEach(rb, func(off int, blk []graph.Edge) error {
					if off != blocks*batch {
						t.Fatalf("batch=%d shape=%d: block %d starts at %d, want %d", batch, si, blocks, off, blocks*batch)
					}
					want := batch
					if rem := len(edges) - off; rem < want {
						want = rem
					}
					if len(blk) != want {
						t.Fatalf("batch=%d shape=%d: block %d has %d edges, want %d", batch, si, blocks, len(blk), want)
					}
					blocks++
					got = append(got, blk...)
					return nil
				})
				if err != nil {
					t.Fatalf("batch=%d shape=%d: %v", batch, si, err)
				}
				if len(got) != len(edges) {
					t.Fatalf("batch=%d shape=%d: %d edges, want %d", batch, si, len(got), len(edges))
				}
				for i := range got {
					if got[i] != edges[i] {
						t.Fatalf("batch=%d shape=%d: edge %d diverges", batch, si, i)
					}
				}
			}
		}
	}
}

// TestRebatchRejectsEmptyBatch: a batch of zero (or fewer) edges would
// never advance the stream, so Rebatch refuses it outright.
func TestRebatchRejectsEmptyBatch(t *testing.T) {
	for _, batch := range []int{0, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Rebatch(src, %d) did not panic", batch)
				}
			}()
			Rebatch(&chunkSource{shapes: []int{1}}, batch)
		}()
	}
}

// TestRebatchShortStream: a base that ends before Len edges must surface
// io.ErrUnexpectedEOF, not silently truncate.
func TestRebatchShortStream(t *testing.T) {
	src := &chunkSource{edges: seqEdges(100), shapes: []int{10}, short: 15}
	rb := Rebatch(src, 32)
	err := ForEach(rb, func(off int, blk []graph.Edge) error { return nil })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want io.ErrUnexpectedEOF", err)
	}
}

// TestRebatchEmpty: zero-edge sources yield EOF immediately.
func TestRebatchEmpty(t *testing.T) {
	rb := Rebatch(&chunkSource{shapes: []int{1}}, 8)
	if err := rb.Reset(); err != nil {
		t.Fatal(err)
	}
	if _, err := rb.NextBlock(); err != io.EOF {
		t.Fatalf("got %v, want io.EOF", err)
	}
}
