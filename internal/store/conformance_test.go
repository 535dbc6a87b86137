package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
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

// TestSourceMatrixEdgeCases covers the boundary shapes shared by every
// backend: an empty file streams nothing and ends on its first block, and
// a single-edge file streams its edge, on every pass.
func TestSourceMatrixEdgeCases(t *testing.T) {
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			empty, err := bc.open(writeTemp(t, graph.New(7, nil)))
			if err != nil {
				t.Fatal(err)
			}
			defer empty.Close()
			if empty.Len() != 0 {
				t.Fatalf("empty file has Len %d", empty.Len())
			}
			for pass := 0; pass < 2; pass++ {
				if got := collect(t, empty); len(got) != 0 {
					t.Fatalf("pass %d: empty file decoded %d edges", pass, len(got))
				}
			}
			if err := empty.Reset(); err != nil {
				t.Fatal(err)
			}
			if _, err := empty.NextBlock(); err != io.EOF {
				t.Fatalf("empty file's first block: err %v, want io.EOF", err)
			}

			one := graph.New(3, []graph.Edge{{Src: 2, Dst: 0}})
			osrc, err := bc.open(writeTemp(t, one))
			if err != nil {
				t.Fatal(err)
			}
			defer osrc.Close()
			for pass := 0; pass < 2; pass++ {
				got := collect(t, osrc)
				if len(got) != 1 || got[0] != one.Edges[0] {
					t.Fatalf("pass %d: single-edge file decoded %v", pass, got)
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

// TestMmapSourceModes pins the backend mode reporting and the close
// contract: Close is idempotent, and a closed handle fails cleanly instead
// of touching a released mapping.
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

	// Close mid-pass: one block read, more to come.
	if err := src.Reset(); err != nil {
		t.Fatal(err)
	}
	if blk, err := src.NextBlock(); err != nil || len(blk) >= g.NumEdges() {
		t.Fatalf("first block: %d edges, err %v; want part of %d", len(blk), err, g.NumEdges())
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if err := src.Reset(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Reset on closed source: %v, want os.ErrClosed", err)
	}
	if _, err := src.NextBlock(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("NextBlock on closed source: %v, want os.ErrClosed", err)
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
	got := collect(t, fb)
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
