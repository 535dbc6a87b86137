package partition

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/stream"
)

// collectOutOfCore runs the out-of-core pass with the given options and
// returns the emitted assignment plus the result.
func collectOutOfCore(t *testing.T, p Partitioner, src stream.Source, k int, opts OutOfCoreOptions) ([]int32, *Result) {
	t.Helper()
	var assign []int32
	res, err := RunOutOfCoreOpts(p, src, k, func(edges []graph.Edge, as []int32) error {
		assign = append(assign, as...)
		return nil
	}, opts)
	if err != nil {
		t.Fatalf("%s (workers=%d): %v", p.Name(), opts.Workers, err)
	}
	return assign, res
}

// TestParallelWorkerInvariance is the worker-invariance criterion of the
// parallel hot pass: for every algorithm, on every source, the parallel
// out-of-core run must emit an
// assignment bit-identical to the serial run - and identical quality - for
// every worker count, including one that divides nothing (7). Batch and
// segment boundaries at other granularities are covered at the stream
// level (internal/stream/parallel_test.go).
func TestParallelWorkerInvariance(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 2500, OutDegree: 6, IntraSite: 0.85, Seed: 51})
	k := 8
	for _, fb := range fileBackends() {
		t.Run(fb.name, func(t *testing.T) {
			path := writeCGR(t, g)
			for _, p := range outOfCorePartitioners(t) {
				src, err := fb.open(path)
				if err != nil {
					t.Fatal(err)
				}
				serial, serialRes := collectOutOfCore(t, p, src, k, OutOfCoreOptions{})
				for _, workers := range []int{1, 2, 4, 7} {
					par, parRes := collectOutOfCore(t, p, src, k, OutOfCoreOptions{Workers: workers})
					if len(par) != len(serial) {
						t.Fatalf("%s workers=%d: emitted %d assignments, serial %d",
							p.Name(), workers, len(par), len(serial))
					}
					for i := range par {
						if par[i] != serial[i] {
							t.Fatalf("%s workers=%d: assignment diverges from serial at edge %d (%d vs %d)",
								p.Name(), workers, i, par[i], serial[i])
						}
					}
					if parRes.Quality.ReplicationFactor != serialRes.Quality.ReplicationFactor {
						t.Fatalf("%s workers=%d: RF %v != serial %v",
							p.Name(), workers, parRes.Quality.ReplicationFactor, serialRes.Quality.ReplicationFactor)
					}
					if parRes.Quality.RelativeBalance != serialRes.Quality.RelativeBalance {
						t.Fatalf("%s workers=%d: balance %v != serial %v",
							p.Name(), workers, parRes.Quality.RelativeBalance, serialRes.Quality.RelativeBalance)
					}
					if parRes.Quality.Replicas != serialRes.Quality.Replicas ||
						parRes.Quality.Vertices != serialRes.Quality.Vertices {
						t.Fatalf("%s workers=%d: replica accounting diverges", p.Name(), workers)
					}
				}
				src.Close()
			}
		})
	}
}

// TestParallelWorkerInvarianceInMemory covers the in-memory segmentable
// source (ViewSource), whose natural-order fast path returns one giant
// block: the parallel pipeline must still cut exact fixed-size batches.
// The graph spans several decode segments, so the workers genuinely
// interleave.
func TestParallelWorkerInvarianceInMemory(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 20000, OutDegree: 8, Seed: 52})
	// A default decode segment is 8 batches of stream.BlockLen edges.
	if need := 2 * 8 * stream.BlockLen; len(g.Edges) <= need {
		t.Fatalf("test graph has %d edges, need more than %d for three decode segments", len(g.Edges), need)
	}
	src := stream.Of(g.Edges).Source(g.NumVertices)
	for _, p := range []Partitioner{&HDRF{}, &CLUGP{Seed: 2}} {
		serial, _ := collectOutOfCore(t, p, src, 6, OutOfCoreOptions{})
		for _, workers := range []int{2, 7} {
			par, _ := collectOutOfCore(t, p, src, 6, OutOfCoreOptions{Workers: workers})
			for i := range par {
				if par[i] != serial[i] {
					t.Fatalf("%s workers=%d: diverges at edge %d", p.Name(), workers, i)
				}
			}
		}
	}
}

// TestParallelFallsBackWithoutSegmenter: a source that cannot segment runs
// the serial pass (same results, no error) even when workers are requested,
// and Result.Pipeline records the downgrade; a segmentable source reports
// the decode fleet it actually ran with - clamped to its segment count -
// and no fallback.
type unsegmentable struct{ stream.Source }

func TestParallelFallsBackWithoutSegmenter(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 500, OutDegree: 4, Seed: 53})
	src := stream.Of(g.Edges).Source(g.NumVertices)
	serial, _ := collectOutOfCore(t, &DBH{}, src, 4, OutOfCoreOptions{})
	fell, res := collectOutOfCore(t, &DBH{}, unsegmentable{src}, 4, OutOfCoreOptions{Workers: 8})
	for i := range fell {
		if fell[i] != serial[i] {
			t.Fatalf("fallback diverges at edge %d", i)
		}
	}
	if res.Pipeline.DecodeWorkers != 1 {
		t.Fatalf("fallback pipeline resolved to %+v, want serial decode", res.Pipeline)
	}
	if !strings.Contains(res.Pipeline.SerialFallback, "cannot segment") {
		t.Fatalf("decode fallback not reported: %q", res.Pipeline.SerialFallback)
	}

	// One decode segment: eight requested workers resolve to one.
	if need := 8 * stream.BlockLen; len(g.Edges) > need {
		t.Fatalf("test graph has %d edges, want at most %d for one decode segment", len(g.Edges), need)
	}
	_, res = collectOutOfCore(t, &HDRF{}, src, 4, OutOfCoreOptions{Workers: 8})
	if res.Pipeline.DecodeWorkers != 1 || res.Pipeline.SerialFallback != "" {
		t.Fatalf("one-segment pipeline info %+v, want decode=1 and no fallback", res.Pipeline)
	}

	big := gen.Web(gen.WebConfig{N: 20000, OutDegree: 8, Seed: 53})
	// A default decode segment is 8 batches of stream.BlockLen edges.
	if need := 2 * 8 * stream.BlockLen; len(big.Edges) <= need {
		t.Fatalf("test graph has %d edges, need more than %d for three decode segments", len(big.Edges), need)
	}
	_, res = collectOutOfCore(t, &HDRF{}, stream.Of(big.Edges).Source(big.NumVertices), 4, OutOfCoreOptions{Workers: 2})
	if res.Pipeline.DecodeWorkers != 2 || res.Pipeline.SerialFallback != "" {
		t.Fatalf("pipeline info %+v, want decode=2 and no fallback", res.Pipeline)
	}
}

// TestPipelineReportsDecodeAhead: Result.Pipeline.DecodeAhead is true
// exactly when the file source itself fed the partitioner at GOMAXPROCS 2 -
// also through a retry wrapper - and false inline at GOMAXPROCS 1, under a
// segment fleet and over an in-memory source; assignments never change.
func TestPipelineReportsDecodeAhead(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 20000, OutDegree: 8, Seed: 54})
	mm, err := store.OpenMmap(writeCGR(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	want, _ := collectOutOfCore(t, &HDRF{}, stream.Of(g.Edges).Source(g.NumVertices), 8, OutOfCoreOptions{})
	for _, tc := range []struct {
		name    string
		src     stream.Source
		procs   int
		workers int
		ahead   bool
	}{
		{"file/procs=1", mm, 1, 0, false},
		{"file/procs=2", mm, 2, 0, true},
		{"retry/procs=2", stream.Retry(mm, stream.RetryConfig{}), 2, 0, true},
		{"fleet/procs=2", mm, 2, 2, false},
		{"memory/procs=2", stream.Of(g.Edges).Source(g.NumVertices), 2, 0, false},
	} {
		prev := runtime.GOMAXPROCS(tc.procs)
		got, res := collectOutOfCore(t, &HDRF{}, tc.src, 8, OutOfCoreOptions{Workers: tc.workers})
		runtime.GOMAXPROCS(prev)
		if res.Pipeline.DecodeAhead != tc.ahead {
			t.Errorf("%s: DecodeAhead %v, want %v", tc.name, res.Pipeline.DecodeAhead, tc.ahead)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: assignments differ from the in-memory pass", tc.name)
		}
	}
}

// TestParallelOutOfCoreRace is the dedicated race workload: parallel passes
// with several worker counts over the mmap backend, so the decode fleet
// hammers concurrent Segment cursors on one shared mapping while the
// assignment and accounting stage consumes its batches. The graph spans
// several decode segments so every worker count actually runs more than
// one decoder. Run
// under -race in CI; assertions are minimal because the test's job is the
// schedule, not the values (TestParallelWorkerInvariance pins those).
func TestParallelOutOfCoreRace(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 20000, OutDegree: 8, IntraSite: 0.8, Seed: 54})
	// A default decode segment is 8 batches of stream.BlockLen edges.
	if need := 2 * 8 * stream.BlockLen; len(g.Edges) <= need {
		t.Fatalf("test graph has %d edges, need more than %d for three decode segments", len(g.Edges), need)
	}
	path := writeCGR(t, g)
	src, err := store.OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, workers := range []int{2, 3, 5} {
		for _, p := range []Partitioner{&DBH{Seed: 1}, &CLUGP{Seed: 1}, &DistributedCLUGP{Nodes: 3, Seed: 1}} {
			res, err := RunOutOfCoreOpts(p, src, 8, nil, OutOfCoreOptions{Workers: workers})
			if err != nil {
				t.Fatalf("%s workers=%d: %v", p.Name(), workers, err)
			}
			if got := res.Quality.Sizes; len(got) != 8 {
				t.Fatalf("%s: %d partition sizes", p.Name(), len(got))
			}
			var sum int64
			for _, s := range res.Quality.Sizes {
				sum += s
			}
			if sum != int64(g.NumEdges()) {
				t.Fatalf("%s workers=%d: sizes sum %d, want %d", p.Name(), workers, sum, g.NumEdges())
			}
		}
	}
}

// TestRunOutOfCoreOptsRejectsBadK covers the shared precondition on the
// options path too.
func TestRunOutOfCoreOptsRejectsBadK(t *testing.T) {
	src := stream.Of([]graph.Edge{{Src: 0, Dst: 1}}).Source(2)
	if _, err := RunOutOfCoreOpts(&Hashing{}, src, 0, nil, OutOfCoreOptions{Workers: 4}); err == nil {
		t.Fatal("k=0 accepted")
	}
}

// BenchmarkOutOfCoreWorkers measures the parallel hot pass end to end on
// the mmap source over a CGR3 file - the configuration the bench suite's
// scaling cells use.
func BenchmarkOutOfCoreWorkers(b *testing.B) {
	g := gen.Web(gen.WebConfig{N: 20000, OutDegree: 15, IntraSite: 0.85, Seed: 55})
	path := b.TempDir() + "/g.cgr"
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Write(f, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	src, err := store.OpenMmap(path)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("dbh/w%d", workers), func(b *testing.B) {
			p := &DBH{Seed: 1}
			b.SetBytes(int64(g.NumEdges()) * 8)
			for i := 0; i < b.N; i++ {
				if _, err := RunOutOfCoreOpts(p, src, 32, nil, OutOfCoreOptions{Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
