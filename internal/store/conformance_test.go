package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

// backendCases enumerates every way a CGR3 file is opened as a source -
// the mmap source mapped and in its read-at fallback, and ReaderAtSource
// over the file's bytes, whole and through a reader that returns at most
// three bytes per call (so read-at refills land inside tokens); the matrix
// tests below run each case against the same expectations, so the decode
// paths can never drift apart behaviorally.
type backendCase struct {
	name string
	open func(path string) (File, error)
}

func backendCases() []backendCase {
	openMmap := func(path string) (File, error) { return OpenMmap(path) }
	openFallback := func(path string) (File, error) {
		disableMmap = true
		defer func() { disableMmap = false }()
		return OpenMmap(path)
	}
	openReaderAt := func(wrap func([]byte) io.ReaderAt) func(string) (File, error) {
		return func(path string) (File, error) {
			data, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			return OpenReaderAt(wrap(data), int64(len(data)), path)
		}
	}
	return []backendCase{
		{"mmap/CGR3", openMmap},
		{"fallback/CGR3", openFallback},
		{"readerat/CGR3", openReaderAt(func(b []byte) io.ReaderAt { return byteReaderAt(b) })},
		{"dribble/CGR3", openReaderAt(func(b []byte) io.ReaderAt { return dribbleReaderAt(b) })},
	}
}

// writeTemp writes g to a temp .cgr file and returns its path.
func writeTemp(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.cgr")
	w, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(w, g); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func collect(t *testing.T, src stream.Source) []graph.Edge {
	t.Helper()
	out, err := stream.Collect(src)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func closeSource(t *testing.T, s stream.Source) {
	t.Helper()
	if c, ok := s.(io.Closer); ok {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSourceMatrixStreamsAndReplays: every backend streams the
// exact edge sequence, replays it identically, and reports the header -
// on a web graph and on straddleEdges' corner runs over 2^31 vertices,
// whose five-byte varints and multi-byte interval counts no three-byte
// read holds whole.
func TestSourceMatrixStreamsAndReplays(t *testing.T) {
	graphs := []*graph.Graph{
		gen.Web(gen.WebConfig{N: 4000, OutDegree: 7, IntraSite: 0.85, Seed: 5}),
		graph.New(1<<31, straddleEdges(1<<31, true)),
	}
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			for gi, g := range graphs {
				src, err := bc.open(writeTemp(t, g))
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				if src.NumVertices() != g.NumVertices || src.Len() != g.NumEdges() {
					t.Fatalf("graph %d: header %d/%d, want %d/%d", gi, src.NumVertices(), src.Len(), g.NumVertices, g.NumEdges())
				}
				if src.Format() != FormatCGR3 {
					t.Fatalf("graph %d: format %s, want CGR3", gi, src.Format())
				}
				a := collect(t, src)
				b := collect(t, src) // Collect resets: the CLUGP multi-pass contract
				if len(a) != len(g.Edges) {
					t.Fatalf("graph %d: decoded %d edges, want %d", gi, len(a), len(g.Edges))
				}
				for i := range a {
					if a[i] != g.Edges[i] {
						t.Fatalf("graph %d: edge %d: %v != %v (order must be preserved)", gi, i, a[i], g.Edges[i])
					}
					if b[i] != a[i] {
						t.Fatalf("graph %d: replay diverged at edge %d", gi, i)
					}
				}
			}
		})
	}
}

// TestSourceMatrixSegmentEdgeCases covers the boundary shapes shared by
// every backend: an empty file, a single-edge file, a segment whose bounds
// land exactly on a checkpoint, and a nested segment of a segment.
func TestSourceMatrixSegmentEdgeCases(t *testing.T) {
	big := gen.Web(gen.WebConfig{N: 6000, OutDegree: 6, Seed: 7})
	if big.NumEdges() < 3*indexStride {
		t.Fatalf("test graph too small: %d edges", big.NumEdges())
	}
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			// Empty file: zero-length segments and EOF on first block.
			empty, err := bc.open(writeTemp(t, graph.New(7, nil)))
			if err != nil {
				t.Fatal(err)
			}
			if got := collect(t, empty); len(got) != 0 {
				t.Fatalf("empty file decoded %d edges", len(got))
			}
			seg, err := empty.Segment(0, 0)
			if err != nil {
				t.Fatalf("empty segment: %v", err)
			}
			if got := collect(t, seg); len(got) != 0 {
				t.Fatal("empty segment yielded edges")
			}
			closeSource(t, seg)
			empty.Close()

			// Single-edge file: the whole file as one segment, and both
			// degenerate boundary segments.
			one := graph.New(3, []graph.Edge{{Src: 2, Dst: 0}})
			osrc, err := bc.open(writeTemp(t, one))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range [][2]int{{0, 1}, {0, 0}, {1, 1}} {
				seg, err := osrc.Segment(b[0], b[1])
				if err != nil {
					t.Fatalf("single-edge segment %v: %v", b, err)
				}
				got := collect(t, seg)
				if len(got) != b[1]-b[0] {
					t.Fatalf("single-edge segment %v: %d edges", b, len(got))
				}
				if len(got) == 1 && got[0] != one.Edges[0] {
					t.Fatalf("single-edge segment decoded %v", got[0])
				}
				closeSource(t, seg)
			}
			osrc.Close()

			// Large file: segments straddling and landing exactly on
			// checkpoint boundaries, plus nesting.
			src, err := bc.open(writeTemp(t, big))
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			n := big.NumEdges()
			bounds := [][2]int{
				{0, n},
				{0, 1},
				{n - 1, n},
				{indexStride, 2 * indexStride},        // exactly on checkpoints
				{indexStride - 1, indexStride + 1},    // straddles a checkpoint
				{indexStride + 37, 2*indexStride + 5}, // mid-stride start
			}
			for _, b := range bounds {
				seg, err := src.Segment(b[0], b[1])
				if err != nil {
					t.Fatalf("segment %v: %v", b, err)
				}
				got := collect(t, seg)
				if len(got) != b[1]-b[0] {
					t.Fatalf("segment %v: %d edges", b, len(got))
				}
				for i := range got {
					if got[i] != big.Edges[b[0]+i] {
						t.Fatalf("segment %v: edge %d mismatch", b, i)
					}
				}
				// Segments replay independently too.
				again := collect(t, seg)
				for i := range again {
					if again[i] != got[i] {
						t.Fatalf("segment %v: replay diverged", b)
					}
				}
				closeSource(t, seg)
			}

			// Nested segment of a segment: global [150, 250).
			outer, err := src.Segment(100, 900)
			if err != nil {
				t.Fatal(err)
			}
			inner, err := outer.(stream.Segmenter).Segment(50, 150)
			if err != nil {
				t.Fatal(err)
			}
			got := collect(t, inner)
			if len(got) != 100 {
				t.Fatalf("nested segment has %d edges", len(got))
			}
			for i := range got {
				if got[i] != big.Edges[150+i] {
					t.Fatalf("nested segment edge %d mismatch", i)
				}
			}
			closeSource(t, inner)
			closeSource(t, outer)

			// Out-of-range bounds are rejected.
			for _, b := range [][2]int{{-1, 1}, {0, n + 1}, {2, 1}} {
				if _, err := src.Segment(b[0], b[1]); err == nil {
					t.Fatalf("segment %v accepted", b)
				}
			}
		})
	}
}

// TestSourceMatrixConcurrentSegments shards one file across goroutines on
// every backend; the mmap backend shares one mapping between all of them.
func TestSourceMatrixConcurrentSegments(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 5000, OutDegree: 6, Seed: 8})
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			src, err := bc.open(writeTemp(t, g))
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			n := g.NumEdges()
			nodes := 4
			per := (n + nodes - 1) / nodes
			subs := make([]stream.Source, 0, nodes)
			for nd := 0; nd < nodes; nd++ {
				lo, hi := nd*per, (nd+1)*per
				if hi > n {
					hi = n
				}
				sub, err := src.Segment(lo, hi)
				if err != nil {
					t.Fatal(err)
				}
				subs = append(subs, sub)
			}
			out := make([][]graph.Edge, nodes)
			errs := make([]error, nodes)
			var wg sync.WaitGroup
			for nd, sub := range subs {
				wg.Add(1)
				go func(nd int, sub stream.Source) {
					defer wg.Done()
					out[nd], errs[nd] = stream.Collect(sub)
				}(nd, sub)
			}
			wg.Wait()
			var all []graph.Edge
			for nd := range subs {
				if errs[nd] != nil {
					t.Fatal(errs[nd])
				}
				all = append(all, out[nd]...)
				closeSource(t, subs[nd])
			}
			if len(all) != n {
				t.Fatalf("shards cover %d edges, want %d", len(all), n)
			}
			for i := range all {
				if all[i] != g.Edges[i] {
					t.Fatalf("sharded read diverges at edge %d", i)
				}
			}
		})
	}
}

// TestSourceMatrixTruncatedBody: a header-intact, body-truncated file must
// surface a decode error, not bogus edges, on every backend.
func TestSourceMatrixTruncatedBody(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 300, OutDegree: 4, Seed: 10})
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			path := writeTemp(t, g)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := bc.open(path) // header is intact; the body is cut short
			if err != nil {
				// The torn file is rejected at open (the trailer is gone);
				// that satisfies the contract too.
				return
			}
			defer src.Close()
			if _, err := stream.Collect(src); err == nil {
				t.Fatal("truncated body decoded without error")
			}
		})
	}
}

// TestMmapSourceModes pins the backend mode reporting and the refcounted
// close order: the root may close before its segments, which keep the
// mapping alive until the last handle goes.
func TestMmapSourceModes(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 2000, OutDegree: 5, Seed: 9})
	path := writeTemp(t, g)

	src, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	// On platforms with mmap wired up this must actually map; the fallback
	// variant is exercised via disableMmap below either way.
	t.Logf("mapped=%v", src.Mapped())

	seg, err := src.Segment(100, 600)
	if err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil { // root first: segment must survive
		t.Fatal(err)
	}
	if err := src.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	got := collect(t, seg)
	for i := range got {
		if got[i] != g.Edges[100+i] {
			t.Fatalf("segment after root close: edge %d mismatch", i)
		}
	}
	closeSource(t, seg)

	// Operations on a closed handle fail cleanly instead of touching a
	// released mapping.
	if err := src.Reset(); err == nil {
		t.Fatal("Reset on closed source succeeded")
	}
	if _, err := src.Segment(0, 1); err == nil {
		t.Fatal("Segment on closed source succeeded")
	}

	// The forced fallback reports unmapped and still satisfies the matrix
	// (covered above); here just pin the flag.
	disableMmap = true
	defer func() { disableMmap = false }()
	fb, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fb.Close()
	if fb.Mapped() {
		t.Fatal("disableMmap still mapped")
	}
	got = collect(t, fb)
	if len(got) != g.NumEdges() {
		t.Fatalf("fallback decoded %d edges", len(got))
	}
}

// TestOpenRejectsJunk: every backend rejects junk and missing files, and
// a source reports its header and on-disk size.
func TestOpenRejectsJunk(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk")
	if err := os.WriteFile(junk, []byte("not a graph at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bc := range backendCases() {
		if _, err := bc.open(junk); !errors.Is(err, ErrBadMagic) {
			t.Fatalf("%s: junk: got %v, want ErrBadMagic", bc.name, err)
		}
		if _, err := bc.open(filepath.Join(dir, "missing")); err == nil {
			t.Fatalf("%s: missing file accepted", bc.name)
		}
	}
	g := gen.Web(gen.WebConfig{N: 300, OutDegree: 4, Seed: 11})
	f, err := OpenMmap(writeTemp(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if f.Len() != g.NumEdges() || f.Format() != FormatCGR3 || f.SizeBytes() <= 0 {
		t.Fatalf("OpenMmap header: len=%d format=%s size=%d", f.Len(), f.Format(), f.SizeBytes())
	}
}
