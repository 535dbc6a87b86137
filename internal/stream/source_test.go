package stream

import (
	"io"
	"testing"

	"repro/internal/graph"
)

func sourceEdges(t *testing.T, src Source) []graph.Edge {
	t.Helper()
	out, err := Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// seqEdges builds n distinguishable edges so any reordering, duplication or
// loss shows up in a plain equality check.
func seqEdges(n int) []graph.Edge {
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID(i + 1)}
	}
	return edges
}

func TestViewSourceNaturalIsZeroCopy(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 0}}
	src := Of(edges).Source(3)
	if src.NumVertices() != 3 || src.Len() != 3 {
		t.Fatalf("shape %d/%d", src.NumVertices(), src.Len())
	}
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	blk, err := src.NextBlock()
	if err != nil {
		t.Fatal(err)
	}
	// Natural order must alias the base storage in one block.
	if len(blk) != 3 || &blk[0] != &edges[0] {
		t.Fatal("natural-order block is not the base slice")
	}
	if _, err := src.NextBlock(); err != io.EOF {
		t.Fatalf("post-EOF NextBlock: %v", err)
	}
}

func TestViewSourcePermutedMatchesAt(t *testing.T) {
	// More than one block so the gather path chunks.
	n := 3*BlockLen + 17
	edges := make([]graph.Edge, n)
	perm := make([]int32, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i % 97), Dst: graph.VertexID(i % 89)}
		perm[i] = int32(n - 1 - i)
	}
	v := Permuted(edges, perm)
	got := sourceEdges(t, v.Source(100))
	if len(got) != n {
		t.Fatalf("len %d, want %d", len(got), n)
	}
	for i := range got {
		if got[i] != v.At(i) {
			t.Fatalf("edge %d: %v != %v", i, got[i], v.At(i))
		}
	}
}

func TestViewSourceReplays(t *testing.T) {
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}
	src := Of(edges).Source(2)
	a := sourceEdges(t, src)
	b := sourceEdges(t, src) // Collect resets
	if len(a) != 2 || len(b) != 2 || a[0] != b[0] || a[1] != b[1] {
		t.Fatalf("replay diverged: %v vs %v", a, b)
	}
}

func TestViewSourceSegment(t *testing.T) {
	n := 100
	edges := make([]graph.Edge, n)
	for i := range edges {
		edges[i] = graph.Edge{Src: graph.VertexID(i), Dst: graph.VertexID((i + 1) % n)}
	}
	src := Of(edges).Source(n)
	sub, err := src.Segment(10, 35)
	if err != nil {
		t.Fatal(err)
	}
	got := sourceEdges(t, sub)
	if len(got) != 25 {
		t.Fatalf("segment len %d, want 25", len(got))
	}
	for i, e := range got {
		if e != edges[10+i] {
			t.Fatalf("segment edge %d mismatch", i)
		}
	}
	if _, err := src.Segment(-1, 5); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := src.Segment(0, n+1); err == nil {
		t.Fatal("hi beyond len accepted")
	}
}

func TestViewSourceEmpty(t *testing.T) {
	src := View{}.Source(5)
	if src.Len() != 0 {
		t.Fatal("empty view has edges")
	}
	if _, err := src.NextBlock(); err != io.EOF {
		t.Fatalf("empty NextBlock: %v", err)
	}
}
