package stream

import (
	"errors"
	"io"
	"testing"

	"repro/internal/graph"
)

var errFlaky = errors.New("flaky I/O")

// sliceSource streams a slice in fixed blocks - small enough that retry
// tests exercise multi-block replay without large graphs.
type sliceSource struct {
	edges []graph.Edge
	nv    int
	bs    int
	pos   int
}

func (s *sliceSource) NumVertices() int { return s.nv }
func (s *sliceSource) Len() int         { return len(s.edges) }
func (s *sliceSource) Reset() error     { s.pos = 0; return nil }
func (s *sliceSource) NextBlock() ([]graph.Edge, error) {
	if s.pos >= len(s.edges) {
		return nil, io.EOF
	}
	hi := s.pos + s.bs
	if hi > len(s.edges) {
		hi = len(s.edges)
	}
	blk := s.edges[s.pos:hi]
	s.pos = hi
	return blk, nil
}

// flaky wraps a source and fails NextBlock once at each scripted absolute
// call number (counted across resets, so each fault fires exactly once).
type flaky struct {
	Source
	failOn map[int]error
	calls  int
	fired  int
	resets int
}

func (f *flaky) Reset() error { f.resets++; return f.Source.Reset() }
func (f *flaky) NextBlock() ([]graph.Edge, error) {
	f.calls++
	if err, ok := f.failOn[f.calls]; ok {
		delete(f.failOn, f.calls)
		f.fired++
		return nil, err
	}
	return f.Source.NextBlock()
}

func testEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i % 7), Dst: graph.VertexID(i % 5)}
	}
	return edges
}

// TestRetryBitIdentical: a stream hit by transient faults at several points -
// first block, mid-stream, right before EOF - delivers exactly the edges a
// clean pass would, in order, with no duplicates or gaps.
func TestRetryBitIdentical(t *testing.T) {
	edges := testEdges(100)
	base := &flaky{
		Source: &sliceSource{edges: edges, nv: 7, bs: 9},
		failOn: map[int]error{1: errFlaky, 5: errFlaky, 11: errFlaky},
	}
	src := Retry(base, RetryConfig{MaxAttempts: 3})
	got, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	if base.fired != 3 {
		t.Fatalf("%d faults fired, want 3", base.fired)
	}
	if base.resets < 3 {
		t.Fatalf("%d resets, want at least one per fault", base.resets)
	}
	if len(got) != len(edges) {
		t.Fatalf("collected %d edges, want %d", len(got), len(edges))
	}
	for i := range got {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
}

// TestRetryReplaySplitsBlocks: a fault after a partial pass makes the
// resuming block start mid-way through an underlying block; the edge
// sequence is still exact.
func TestRetryReplaySplitsBlocks(t *testing.T) {
	edges := testEdges(40)
	base := &flaky{
		Source: &sliceSource{edges: edges, nv: 7, bs: 16},
		failOn: map[int]error{2: errFlaky},
	}
	src := Retry(base, RetryConfig{})
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	var got []graph.Edge
	var sizes []int
	for {
		blk, err := src.NextBlock()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, blk...)
		sizes = append(sizes, len(blk))
	}
	if len(got) != len(edges) {
		t.Fatalf("collected %d edges, want %d", len(got), len(edges))
	}
	for i := range got {
		if got[i] != edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], edges[i])
		}
	}
	// First block delivered 16 edges, then the fault; the replayed resume
	// must pick up at edge 16 inside the underlying pass.
	if sizes[0] != 16 {
		t.Fatalf("first block %d edges, want 16", sizes[0])
	}
}

// TestRetryExhausted: a position that keeps failing surfaces the original
// error after MaxAttempts tries, not a success and not a different error.
func TestRetryExhausted(t *testing.T) {
	edges := testEdges(10)
	base := &flaky{
		Source: &sliceSource{edges: edges, nv: 7, bs: 4},
		failOn: map[int]error{1: errFlaky, 2: errFlaky, 3: errFlaky},
	}
	src := Retry(base, RetryConfig{MaxAttempts: 3})
	_, err := Collect(src)
	if !errors.Is(err, errFlaky) {
		t.Fatalf("got %v, want errFlaky after exhausted attempts", err)
	}
	if base.fired != 3 {
		t.Fatalf("%d faults consumed, want MaxAttempts=3", base.fired)
	}
}

// TestRetryRespectsRetryable: errors the policy declares permanent surface
// immediately, with no replay.
func TestRetryRespectsRetryable(t *testing.T) {
	permanent := errors.New("checksum mismatch")
	base := &flaky{
		Source: &sliceSource{edges: testEdges(10), nv: 7, bs: 4},
		failOn: map[int]error{2: permanent},
	}
	src := Retry(base, RetryConfig{
		MaxAttempts: 5,
		Retryable:   func(err error) bool { return errors.Is(err, errFlaky) },
	})
	_, err := Collect(src)
	if !errors.Is(err, permanent) {
		t.Fatalf("got %v, want the permanent error", err)
	}
	if base.resets != 1 {
		t.Fatalf("%d resets, want only Collect's initial one", base.resets)
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

// TestRetryShrunkenSource: if a replay finds fewer edges than were already
// delivered (the file changed underneath), the wrapper reports it instead of
// silently delivering a divergent stream.
func TestRetryShrunkenSource(t *testing.T) {
	edges := testEdges(20)
	inner := &sliceSource{edges: edges, nv: 7, bs: 8}
	base := &flaky{Source: inner, failOn: map[int]error{3: errFlaky}}
	src := Retry(base, RetryConfig{})
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	// Deliver two blocks (16 edges), then shrink the source below the
	// delivered position before the fault triggers a replay.
	for i := 0; i < 2; i++ {
		if _, err := src.NextBlock(); err != nil {
			t.Fatal(err)
		}
	}
	inner.edges = edges[:10]
	_, err := src.NextBlock()
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("got %v, want a replay-position error", err)
	}
}
