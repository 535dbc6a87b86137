package store

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
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

// TestMmapSourceModes drives a mapped source through two full passes, a
// pass stopped midway and Reset, and a Close midway, over a file of several
// release steps: its blocks must equal the read-at fallback's on every
// pass, so dropping decoded pages never changes what a later pass reads,
// and after each Reset the mapping keeps at most one step resident (on
// Linux, from /proc/self/smaps). The forced fallback reports unmapped.
func TestMmapSourceModes(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 20000, OutDegree: 24, IntraSite: 0.8, Seed: 9})
	path := writeTemp(t, g)

	disableMmap = true
	fb, err := OpenMmap(path)
	disableMmap = false
	if err != nil {
		t.Fatal(err)
	}
	if fb.Mapped() {
		t.Fatal("disableMmap still mapped")
	}
	want := readBlocks(t, fb, -1)
	fb.Close()
	if fb.SizeBytes() < 3*releaseStep {
		t.Fatalf("file of %d bytes spans under three release steps", fb.SizeBytes())
	}

	src, err := OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	// On platforms with mmap wired up this must actually map; the fallback
	// is exercised above either way.
	t.Logf("mapped=%v", src.Mapped())
	onLinux := runtime.GOOS == "linux" && src.Mapped()
	pass := func(name string, stop int) {
		if err := src.Reset(); err != nil {
			t.Fatal(err)
		}
		if rss, found := mappedResident(t, path); onLinux && (!found || rss > releaseStep) {
			t.Fatalf("%s: mapping listed %v, %d bytes resident after Reset; want at most %d", name, found, rss, releaseStep)
		}
		got := readBlocks(t, src, stop)
		if stop < 0 && len(got) != len(want) {
			t.Fatalf("%s: %d blocks, read-at fallback %d", name, len(got), len(want))
		}
		for i := range got {
			if !slices.Equal(got[i], want[i]) {
				t.Fatalf("%s: block %d differs from the read-at fallback's", name, i)
			}
		}
	}
	pass("first pass", -1)
	pass("second pass", -1)
	pass("stopped pass", len(want)/2)
	pass("pass after the stopped one", -1)

	// Close mid-pass: half the blocks read, more to come.
	pass("closed pass", len(want)/2)
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if rss, found := mappedResident(t, path); found {
		t.Fatalf("mapping still listed after Close (%d bytes resident)", rss)
	}
	if err := src.Reset(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("Reset on closed source: %v, want os.ErrClosed", err)
	}
	if _, err := src.NextBlock(); !errors.Is(err, os.ErrClosed) {
		t.Fatalf("NextBlock on closed source: %v, want os.ErrClosed", err)
	}
}

// readBlocks copies the next n blocks src hands out, or every block to the
// end of the pass when n is negative.
func readBlocks(t *testing.T, src stream.Source, n int) [][]graph.Edge {
	t.Helper()
	var out [][]graph.Edge
	for n < 0 || len(out) < n {
		blk, err := src.NextBlock()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, slices.Clone(blk))
	}
	return out
}

// mappedResident sums the Rss of the process's mappings of the file at
// path, as /proc/self/smaps lists them; found is false where no mapping of
// the file is listed, or there is no smaps.
func mappedResident(t *testing.T, path string) (rss int64, found bool) {
	t.Helper()
	smaps, err := os.ReadFile("/proc/self/smaps")
	if err != nil {
		return 0, false
	}
	if path, err = filepath.EvalSymlinks(path); err != nil {
		t.Fatal(err)
	}
	in := false
	for _, line := range strings.Split(string(smaps), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0:
		case !strings.HasSuffix(f[0], ":"): // a mapping: range perms offset dev inode [path]
			in = len(f) == 6 && f[5] == path
			found = found || in
		case in && f[0] == "Rss:":
			kb, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("smaps %q: %v", line, err)
			}
			rss += kb << 10
		}
	}
	return rss, found
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
