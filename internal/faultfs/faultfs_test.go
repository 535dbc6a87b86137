package faultfs

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/stream"
)

func writeGraph(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.cgr")
	w, err := store.NewAtomicWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := store.Write(w, g); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return path
}

func testGraph() *graph.Graph {
	return gen.Web(gen.WebConfig{N: 20000, OutDegree: 5, IntraSite: 0.7, Seed: 11})
}

// TestInjectorTransient: a transient fault fails exactly the scripted number
// of covering reads and then heals; bytes after healing are pristine.
func TestInjectorTransient(t *testing.T) {
	data := []byte("0123456789abcdef")
	inj := Wrap(bytes.NewReader(data), Fault{Kind: TransientError, Off: 4})
	p := make([]byte, 8)
	if _, err := inj.ReadAt(p, 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("first covering read: got %v, want ErrInjected", err)
	}
	n, err := inj.ReadAt(p, 2)
	if err != nil || n != 8 || string(p) != "23456789" {
		t.Fatalf("healed read = %q, %d, %v", p[:n], n, err)
	}
	// A read not covering the offset never fires the fault.
	inj2 := Wrap(bytes.NewReader(data), Fault{Kind: TransientError, Off: 12})
	if _, err := inj2.ReadAt(p, 0); err != nil {
		t.Fatalf("non-covering read: %v", err)
	}
	st := inj.Stats()
	if st.TransientErrors != 1 || st.Reads != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestInjectorSkip: Skip lets the first covering reads pass so a fault can
// fire mid-stream rather than at open.
func TestInjectorSkip(t *testing.T) {
	data := bytes.Repeat([]byte{7}, 64)
	inj := Wrap(bytes.NewReader(data), Fault{Kind: TransientError, Off: 10, Skip: 2})
	p := make([]byte, 32)
	for i := 0; i < 2; i++ {
		if _, err := inj.ReadAt(p, 0); err != nil {
			t.Fatalf("read %d during skip window: %v", i, err)
		}
	}
	if _, err := inj.ReadAt(p, 0); !errors.Is(err, ErrInjected) {
		t.Fatalf("third covering read: got %v, want ErrInjected", err)
	}
}

// TestInjectorShortRead: a short read delivers correct bytes up to the fault
// offset with a non-nil error, per the io.ReaderAt contract.
func TestInjectorShortRead(t *testing.T) {
	data := []byte("0123456789abcdef")
	inj := Wrap(bytes.NewReader(data), Fault{Kind: ShortRead, Off: 5})
	p := make([]byte, 10)
	n, err := inj.ReadAt(p, 2)
	if n != 4 || err == nil {
		t.Fatalf("short read = %d, %v; want 4 bytes and an error", n, err)
	}
	if string(p[:n]) != "2345" {
		t.Fatalf("short read delivered %q", p[:n])
	}
	n, err = inj.ReadAt(p, 2)
	if n != 10 || err != nil {
		t.Fatalf("healed read = %d, %v", n, err)
	}
}

// TestInjectorTruncate: reads at or past the cut see EOF, reads crossing it
// come back short, and the fault is persistent.
func TestInjectorTruncate(t *testing.T) {
	data := []byte("0123456789abcdef")
	inj := Wrap(bytes.NewReader(data), Fault{Kind: Truncate, Off: 8})
	p := make([]byte, 8)
	if _, err := inj.ReadAt(p, 8); err != io.EOF {
		t.Fatalf("read at the cut: got %v, want io.EOF", err)
	}
	n, err := inj.ReadAt(p, 6)
	if n != 2 || err != io.EOF || string(p[:n]) != "67" {
		t.Fatalf("crossing read = %q, %d, %v; want \"67\", 2, EOF", p[:n], n, err)
	}
	if _, err := inj.ReadAt(p, 12); err != io.EOF {
		t.Fatalf("truncation healed: %v", err)
	}
}

// TestInjectorBitFlip: the flip is persistent and confined to one bit of one
// byte.
func TestInjectorBitFlip(t *testing.T) {
	data := []byte{0, 0, 0, 0}
	inj := Wrap(bytes.NewReader(data), Fault{Kind: BitFlip, Off: 2, Bit: 3})
	p := make([]byte, 4)
	for round := 0; round < 2; round++ {
		if _, err := inj.ReadAt(p, 0); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(p, []byte{0, 0, 8, 0}) {
			t.Fatalf("round %d read %v", round, p)
		}
	}
}

// TestTransientSurvivedWithRetry: a CGR3 file on a disk that throws seeded
// transient errors streams bit-identically to the clean file once wrapped in
// stream.Retry - and the injector confirms faults actually fired.
func TestTransientSurvivedWithRetry(t *testing.T) {
	g := testGraph()
	path := writeGraph(t, g)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	plan := TransientPlan(99, fi.Size(), 8)
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// One injector persists across open attempts, like a real disk: a
	// transient that fails the open has fired, and the retried open heals.
	inj := Wrap(f, plan...)
	var src *store.ReaderAtSource
	for attempt := 0; ; attempt++ {
		src, err = store.OpenReaderAt(inj, fi.Size(), path)
		if err == nil {
			break
		}
		if !errors.Is(err, ErrInjected) || attempt > len(plan) {
			t.Fatal(err)
		}
	}
	defer src.Close()
	got, err := stream.Collect(stream.Retry(src, stream.RetryConfig{
		MaxAttempts: len(plan) + 2,
		Retryable:   func(err error) bool { return errors.Is(err, ErrInjected) },
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(g.Edges) {
		t.Fatalf("streamed %d edges, want %d", len(got), len(g.Edges))
	}
	for i := range got {
		if got[i] != g.Edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], g.Edges[i])
		}
	}
	if st := inj.Stats(); st.TransientErrors == 0 {
		t.Fatalf("no transient fault fired (stats %+v); the test proved nothing", st)
	}
}

// TestShortReadsAbsorbed: short reads alone never corrupt a stream - the
// windowed cursor and the verification reader both resume - and the decoded
// edges match exactly.
func TestShortReadsAbsorbed(t *testing.T) {
	g := testGraph()
	path := writeGraph(t, g)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	var plan []Fault
	for i := int64(1); i <= 6; i++ {
		plan = append(plan, Fault{Kind: ShortRead, Off: i * fi.Size() / 7, Count: 2})
	}
	src, err := Open(path, plan...)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	got, err := stream.Collect(stream.Retry(src, stream.RetryConfig{
		MaxAttempts: 4,
		Retryable:   func(err error) bool { return errors.Is(err, ErrInjected) },
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(g.Edges) {
		t.Fatalf("streamed %d edges, want %d", len(got), len(g.Edges))
	}
	for i := range got {
		if got[i] != g.Edges[i] {
			t.Fatalf("edge %d = %v, want %v", i, got[i], g.Edges[i])
		}
	}
	if st := src.Injector().Stats(); st.ShortReads == 0 {
		t.Fatalf("no short read fired (stats %+v)", st)
	}
}

// TestPersistentCorruptionDetected: a bit flip on the faulty disk is caught
// by the CGR3 checksums - never surfaced as wrong edges - no matter where it
// lands, and retrying does not launder it into success.
func TestPersistentCorruptionDetected(t *testing.T) {
	g := testGraph()
	path := writeGraph(t, g)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{64, fi.Size() / 3, fi.Size() / 2, fi.Size() - 40} {
		src, err := Open(path, Fault{Kind: BitFlip, Off: off, Bit: 2})
		if err != nil {
			continue // caught at open: detected
		}
		_, cerr := stream.Collect(stream.Retry(src, stream.RetryConfig{MaxAttempts: 2,
			Retryable: func(err error) bool { return errors.Is(err, ErrInjected) }}))
		if cerr == nil {
			t.Errorf("bit flip at %d streamed to completion", off)
		}
		src.Close()
	}
}

// TestTruncationDetected: a file cut at any of several points is rejected at
// open or during the stream, never silently shortened.
func TestTruncationDetected(t *testing.T) {
	g := testGraph()
	path := writeGraph(t, g)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, off := range []int64{10, fi.Size() / 2, fi.Size() - 20} {
		src, err := Open(path, Fault{Kind: Truncate, Off: off})
		if err != nil {
			continue // caught at open: detected
		}
		if _, cerr := stream.Collect(src); cerr == nil {
			t.Errorf("truncation at %d streamed to completion", off)
		}
		src.Close()
	}
}

// TestFaultfsConformance: with an empty fault plan, the faultfs backend is
// just another store.File - Verify and re-streaming both behave.
func TestFaultfsConformance(t *testing.T) {
	g := testGraph()
	src, err := Open(writeGraph(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if err := src.Verify(); err != nil {
		t.Fatalf("Verify: %v", err)
	}
	for pass := 0; pass < 2; pass++ {
		got, err := stream.Collect(src)
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, g.Edges) {
			t.Fatalf("pass %d: streamed %d edges, want the file's %d in order", pass, len(got), len(g.Edges))
		}
	}
}
