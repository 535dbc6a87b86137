package partition

import (
	"errors"
	"os"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/stream"
)

// faultTestGraph is large enough that its CGR3 payload spans several
// checksum blocks and a transient plan has room to land mid-pass.
func faultTestGraph() *graph.Graph {
	return gen.Web(gen.WebConfig{N: 30000, OutDegree: 5, IntraSite: 0.7, Seed: 17})
}

// collectAssignments runs p out-of-core over src and returns the full
// assignment stream plus the result.
func collectAssignments(t *testing.T, p Partitioner, src stream.Source, k int, opts OutOfCoreOptions) ([]int32, *Result) {
	t.Helper()
	var assign []int32
	res, err := RunOutOfCoreOpts(p, src, k, func(edges []graph.Edge, a []int32) error {
		assign = append(assign, a...)
		return nil
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return assign, res
}

// openFaulty opens path through an injector, retrying the open itself when a
// transient fault hits it (the injector persists across attempts, like a
// real disk, so open-time transients heal).
func openFaulty(t *testing.T, path string, plan []faultfs.Fault) (*store.ReaderAtSource, *faultfs.Injector, func()) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		t.Fatal(err)
	}
	inj := faultfs.Wrap(f, plan...)
	for attempt := 0; ; attempt++ {
		src, err := store.OpenReaderAt(inj, fi.Size(), path)
		if err == nil {
			return src, inj, func() { src.Close(); f.Close() }
		}
		if !errors.Is(err, faultfs.ErrInjected) || attempt > len(plan) {
			f.Close()
			t.Fatal(err)
		}
	}
}

var retryInjected = stream.RetryConfig{
	MaxAttempts: 12,
	Retryable:   func(err error) bool { return errors.Is(err, faultfs.ErrInjected) },
}

// TestPartitionBitIdenticalUnderTransientFaults is the fault-injection
// bit-equivalence matrix: partitioning a CGR3 file from a disk that throws
// seeded transient errors - survived via stream.Retry - produces exactly the
// assignments and quality of the clean in-memory run, for every registered
// algorithm, serially and with parallel workers.
func TestPartitionBitIdenticalUnderTransientFaults(t *testing.T) {
	g := faultTestGraph()
	path := writeCGR(t, g)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	for _, name := range Names() {
		p, err := New(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref, refRes := collectAssignments(t, p, stream.Of(g.Edges).Source(g.NumVertices), k, OutOfCoreOptions{})

		for _, workers := range []int{1, 4} {
			plan := faultfs.TransientPlan(uint64(1000+workers), fi.Size(), 6)
			src, inj, done := openFaulty(t, path, plan)
			got, gotRes := collectAssignments(t, p, stream.Retry(src, retryInjected), k, OutOfCoreOptions{Workers: workers})
			done()

			if len(got) != len(ref) {
				t.Fatalf("%s workers=%d: %d assignments, want %d", name, workers, len(got), len(ref))
			}
			for i := range got {
				if got[i] != ref[i] {
					t.Fatalf("%s workers=%d: assignment %d = %d, want %d", name, workers, i, got[i], ref[i])
				}
			}
			if gotRes.Quality.ReplicationFactor != refRes.Quality.ReplicationFactor ||
				gotRes.Quality.RelativeBalance != refRes.Quality.RelativeBalance {
				t.Fatalf("%s workers=%d: quality %+v, want %+v", name, workers, gotRes.Quality, refRes.Quality)
			}
			if st := inj.Stats(); st.TransientErrors == 0 {
				t.Fatalf("%s workers=%d: no transient fired (stats %+v); the run proved nothing", name, workers, st)
			}
		}
	}
}

// TestPartitionPersistentCorruptionFails: a partitioning run over a CGR3
// file with a flipped bit or a torn tail errors on every backend - it never
// completes with silently wrong assignments, and retrying transients does
// not launder the corruption into success.
func TestPartitionPersistentCorruptionFails(t *testing.T) {
	g := faultTestGraph()
	path := writeCGR(t, g)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New("CLUGP", 3)
	if err != nil {
		t.Fatal(err)
	}

	run := func(src stream.Source) error {
		_, err := RunOutOfCore(p, stream.Retry(src, retryInjected), 4, nil)
		return err
	}

	corrupt := make([]byte, len(clean))
	copy(corrupt, clean)
	corrupt[len(clean)/2] ^= 0x04
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, open := range fileBackends() {
		src, err := open.open(path)
		if err != nil {
			continue // rejected at open: detected
		}
		if err := run(src); err == nil {
			t.Errorf("%s: bit-flipped file partitioned without error", open.name)
		}
		src.Close()
	}

	// Torn write, injected beneath an otherwise clean file.
	if err := os.WriteFile(path, clean, 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := faultfs.Open(path, faultfs.Fault{Kind: faultfs.Truncate, Off: int64(len(clean)) * 2 / 3})
	if err == nil {
		if err := run(src); err == nil {
			t.Error("truncated file partitioned without error")
		}
		src.Close()
	}
}
