package stream

import (
	"io"
	"testing"

	"repro/internal/graph"
)

// TestSegmentRebatchOffsetRoundTrip holds the segment alignment contract:
// opening a segment at a block-aligned offset and rebatching it to
// BlockLen delivers exactly the edges past the offset, in order, with
// every batch boundary landing on the same absolute stream offsets an
// uninterrupted rebatched pass would produce. Offsets cover the
// interesting boundaries: the stream head, the first and a middle block
// boundary, the last full boundary before the ragged tail, and the stream
// end (an empty segment).
func TestSegmentRebatchOffsetRoundTrip(t *testing.T) {
	edges := seqEdges(3*BlockLen + 123)
	total := len(edges)
	last := (total / BlockLen) * BlockLen
	for _, off := range []int{0, BlockLen, 2 * BlockLen, last, total} {
		src := Of(edges).Source(100)
		tail, err := src.Segment(off, total)
		if err != nil {
			t.Fatalf("Segment(%d, %d): %v", off, total, err)
		}
		if tail.Len() != total-off {
			t.Fatalf("segment [%d, %d) has Len %d, want %d", off, total, tail.Len(), total-off)
		}
		rb := Rebatch(tail, BlockLen)
		pos := off
		err = ForEach(rb, func(_ int, blk []graph.Edge) error {
			// Batch boundaries must sit at absolute BlockLen multiples (the
			// final batch carries the remainder), or a resumed run's commit
			// points would drift from a clean run's.
			if want := min(BlockLen-pos%BlockLen, total-pos); len(blk) != want {
				t.Fatalf("offset %d: batch at %d has %d edges, want %d", off, pos, len(blk), want)
			}
			for i, e := range blk {
				if e != edges[pos+i] {
					t.Fatalf("offset %d: edge %d = %v, want %v", off, pos+i, e, edges[pos+i])
				}
			}
			pos += len(blk)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if pos != total {
			t.Fatalf("offset %d: delivered up to %d, want %d", off, pos, total)
		}
	}
}

// TestSegmentNests: Segment(lo, hi) is relative to its receiver, so a
// segment of a segment addresses the original stream at the summed offset -
// what lets a consumer cut a segment into further segments.
func TestSegmentNests(t *testing.T) {
	edges := seqEdges(2 * BlockLen)
	src := Of(edges).Source(100)
	tail, err := src.Segment(BlockLen, len(edges))
	if err != nil {
		t.Fatal(err)
	}
	seg, ok := tail.(Segmenter)
	if !ok {
		t.Fatalf("segment %T lost the Segment method", tail)
	}
	sub, err := seg.Segment(10, 20)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Collect(sub)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 || got[0] != edges[BlockLen+10] || got[9] != edges[BlockLen+19] {
		t.Fatalf("nested segment returned %d edges starting %v", len(got), got[0])
	}
}

// TestSegmentEmptyTail: resuming at the very end of the stream is legal
// (the checkpoint covered everything); the segment is empty and a pass over
// it delivers nothing.
func TestSegmentEmptyTail(t *testing.T) {
	edges := seqEdges(BlockLen)
	src := Of(edges).Source(100)
	tail, err := src.Segment(len(edges), len(edges))
	if err != nil {
		t.Fatal(err)
	}
	if tail.Len() != 0 {
		t.Fatalf("empty segment has Len %d", tail.Len())
	}
	if _, err := Rebatch(tail, BlockLen).NextBlock(); err != io.EOF {
		t.Fatalf("empty segment yielded a block (err %v)", err)
	}
}

// TestRetryStatsCount: every survived replay bumps the shared stats
// counter, the wrapper surfaces it via RetryAttempts, and a clean pass
// reads zero.
func TestRetryStatsCount(t *testing.T) {
	edges := testEdges(100)
	st := &RetryStats{}
	f := &flaky{Source: &sliceSource{edges: edges, nv: 10, bs: 7},
		failOn: map[int]error{2: errFlaky, 5: errFlaky, 9: errFlaky}}
	src := Retry(f, RetryConfig{MaxAttempts: 5, Stats: st})
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(edges) {
		t.Fatalf("collected %d edges, want %d", len(got), len(edges))
	}
	if st.Attempts() != 3 {
		t.Fatalf("stats count %d attempts, want 3", st.Attempts())
	}
	rc, ok := src.(interface{ RetryAttempts() int64 })
	if !ok {
		t.Fatalf("%T does not surface RetryAttempts", src)
	}
	if rc.RetryAttempts() != 3 {
		t.Fatalf("RetryAttempts() = %d, want 3", rc.RetryAttempts())
	}

	clean := Retry(&sliceSource{edges: edges, nv: 10, bs: 7}, RetryConfig{})
	if _, err := Collect(clean); err != nil {
		t.Fatal(err)
	}
	if n := clean.(interface{ RetryAttempts() int64 }).RetryAttempts(); n != 0 {
		t.Fatalf("clean pass fired %d attempts", n)
	}
}
