package partition

import (
	"errors"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/stream"
)

// withProcs runs fn at GOMAXPROCS procs and restores the previous setting.
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// invarianceGraph spans several CGR3 blocks, so a decode-ahead pass hands
// blocks over between goroutines and CLUGP-D's shard windows each start
// and end inside a block.
func invarianceGraph(t *testing.T) *graph.Graph {
	t.Helper()
	g := gen.Web(gen.WebConfig{N: 5000, OutDegree: 6, IntraSite: 0.85, Seed: 51})
	if need := 3 * stream.BlockLen; len(g.Edges) <= need {
		t.Fatalf("test graph has %d edges, need more than %d for several blocks", len(g.Edges), need)
	}
	return g
}

// checkDecodeModes runs every out-of-core algorithm over src at GOMAXPROCS
// 1 (inline) and 2 (a store file source decodes ahead on its parallel
// worker, a second goroutine) and requires each run to emit want[i]'s
// assignment with wantRes[i]'s quality, and Pipeline.DecodeAhead to be
// set exactly when a file source fed the partitioner at GOMAXPROCS 2 -
// CLUGP-D's ingest nodes included, whose windows read the same source.
func checkDecodeModes(t *testing.T, src stream.Source, file bool, k int, want [][]int32, wantRes []*Result) {
	t.Helper()
	for i, p := range outOfCorePartitioners(t) {
		for _, procs := range []int{1, 2} {
			var got []int32
			var res *Result
			withProcs(procs, func() { got, res = collectAssignments(t, p, src, k) })
			if ahead := file && procs == 2; res.Pipeline.DecodeAhead != ahead {
				t.Errorf("%s procs=%d: DecodeAhead %v, want %v", p.Name(), procs, res.Pipeline.DecodeAhead, ahead)
			}
			if !slices.Equal(got, want[i]) {
				t.Fatalf("%s procs=%d: assignment differs from the in-memory inline pass", p.Name(), procs)
			}
			if !reflect.DeepEqual(res.Quality, wantRes[i].Quality) {
				t.Fatalf("%s procs=%d: quality %+v, want %+v", p.Name(), procs, res.Quality, wantRes[i].Quality)
			}
		}
	}
}

// inlineReference is every out-of-core algorithm's assignment and result
// over the in-memory view at GOMAXPROCS 1, in outOfCorePartitioners order.
func inlineReference(t *testing.T, g *graph.Graph, k int) ([][]int32, []*Result) {
	t.Helper()
	var want [][]int32
	var wantRes []*Result
	for _, p := range outOfCorePartitioners(t) {
		withProcs(1, func() {
			a, res := collectAssignments(t, p, memSource(g), k)
			want, wantRes = append(want, a), append(wantRes, res)
		})
	}
	return want, wantRes
}

// TestParallelWorkerInvariance is the invariance criterion of the
// out-of-core decode paths over files: every algorithm, over both file
// sources (OpenMmap and OpenReaderAt) and a retry-wrapped CGR3 source,
// emits the same assignment with the same quality as the in-memory inline
// pass, whether the file source decodes inline (GOMAXPROCS 1) or ahead of
// the partitioner on its parallel worker goroutine (GOMAXPROCS 2).
func TestParallelWorkerInvariance(t *testing.T) {
	g := invarianceGraph(t)
	k := 8
	want, wantRes := inlineReference(t, g, k)
	path := writeCGR(t, g)
	for _, fb := range fileBackends() {
		t.Run(fb.name, func(t *testing.T) {
			src, err := fb.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			checkDecodeModes(t, src, true, k, want, wantRes)
		})
	}
	t.Run("retry/CGR3", func(t *testing.T) {
		src, err := store.OpenMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		defer src.Close()
		checkDecodeModes(t, stream.Retry(src, stream.RetryConfig{}), true, k, want, wantRes)
	})
}

// TestParallelWorkerInvarianceInMemory covers the in-memory view, which
// never decodes ahead: every algorithm emits the same assignment with the
// same quality at GOMAXPROCS 1 and 2.
func TestParallelWorkerInvarianceInMemory(t *testing.T) {
	g := invarianceGraph(t)
	k := 8
	want, wantRes := inlineReference(t, g, k)
	checkDecodeModes(t, memSource(g), false, k, want, wantRes)
}

// TestPipelineReportsDecodeAhead: Result.Pipeline.DecodeAhead is true
// exactly when the file source itself fed the partitioner at GOMAXPROCS 2 -
// also through a retry wrapper - and false inline at GOMAXPROCS 1 and over
// an in-memory source; assignments never change.
func TestPipelineReportsDecodeAhead(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 20000, OutDegree: 8, Seed: 54})
	mm, err := store.OpenMmap(writeCGR(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	want, _ := collectAssignments(t, &HDRF{}, stream.Of(g.Edges).Source(g.NumVertices), 8)
	for _, tc := range []struct {
		name  string
		src   stream.Source
		procs int
		ahead bool
	}{
		{"file/procs=1", mm, 1, false},
		{"file/procs=2", mm, 2, true},
		{"retry/procs=2", stream.Retry(mm, stream.RetryConfig{}), 2, true},
		{"memory/procs=2", stream.Of(g.Edges).Source(g.NumVertices), 2, false},
	} {
		var got []int32
		var res *Result
		withProcs(tc.procs, func() { got, res = collectAssignments(t, &HDRF{}, tc.src, 8) })
		if res.Pipeline.DecodeAhead != tc.ahead {
			t.Errorf("%s: DecodeAhead %v, want %v", tc.name, res.Pipeline.DecodeAhead, tc.ahead)
		}
		if !slices.Equal(got, want) {
			t.Errorf("%s: assignments differ from the in-memory pass", tc.name)
		}
	}
}

// TestPipelineReportsAccountingAhead: Result.Pipeline.AccountingAhead is
// true exactly at GOMAXPROCS 2, over a file source and an in-memory one,
// out of core and in window mode (RunStreamed); the assignment, Quality
// and replica table equal the inline run's every time.
func TestPipelineReportsAccountingAhead(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 20000, OutDegree: 8, Seed: 55})
	mm, err := store.OpenMmap(writeCGR(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer mm.Close()
	mem := stream.Of(g.Edges).Source(g.NumVertices)
	var want []int32
	var wantRes *Result
	withProcs(1, func() { want, wantRes = collectAssignments(t, &HDRF{}, mem, 70) })
	sameTable := func(name string, rs *metrics.ReplicaSets) {
		t.Helper()
		for v := range g.NumVertices {
			for w := range rs.Words() {
				if rs.Word(graph.VertexID(v), w) != wantRes.Replicas.Word(graph.VertexID(v), w) {
					t.Fatalf("%s: vertex %d's replica word %d differs from the inline run's", name, v, w)
				}
			}
		}
	}
	for _, tc := range []struct {
		name     string
		src      stream.Source
		procs    int
		windowed bool
	}{
		{"file/procs=1", mm, 1, false},
		{"file/procs=2", mm, 2, false},
		{"memory/procs=2", mem, 2, false},
		{"window/procs=1", mem, 1, true},
		{"window/procs=2", mem, 2, true},
	} {
		var got []int32
		var res *Result
		withProcs(tc.procs, func() {
			if !tc.windowed {
				got, res = collectAssignments(t, &HDRF{}, tc.src, 70)
				return
			}
			if res, err = RunStreamed(&HDRF{}, tc.src, stream.Natural, 70); err != nil {
				t.Fatal(err)
			}
			got = res.Assign
		})
		if ahead := tc.procs == 2; res.Pipeline.AccountingAhead != ahead {
			t.Errorf("%s: AccountingAhead %v, want %v", tc.name, res.Pipeline.AccountingAhead, ahead)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("%s: assignments differ from the inline run", tc.name)
		}
		if !reflect.DeepEqual(res.Quality, wantRes.Quality) {
			t.Fatalf("%s: quality %+v, want %+v", tc.name, res.Quality, wantRes.Quality)
		}
		sameTable(tc.name, res.Replicas)
	}
}

// TestOutOfCoreDecodeRace is the race workload of the out-of-core path, at
// GOMAXPROCS 2 or more so the mmap source decodes ahead: multi-pass CLUGP
// hands the decode goroutine's blocks over across every Reset between its
// passes, a run killed mid pass 3 by its emit leaves a live decode
// goroutine for the next run's Reset to stop, and CLUGP-D's ingest nodes
// read windows of the same decode-ahead source, each Reset stopping the
// goroutine mid-pass once the window ends. The file spans several of the
// store's 256 KiB release steps, so the decode goroutine drops mapped pages
// mid-pass and every one of those Resets drops the rest. Run under -race
// in CI; assertions are minimal because the test's job is the schedule,
// not the values (TestParallelWorkerInvariance pins those).
func TestOutOfCoreDecodeRace(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 20000, OutDegree: 24, IntraSite: 0.8, Seed: 54})
	src, err := store.OpenMmap(writeCGR(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	if src.SizeBytes() < 3*256<<10 {
		t.Fatalf("file of %d bytes spans under three release steps", src.SizeBytes())
	}
	errStop := errors.New("stop")
	withProcs(max(runtime.GOMAXPROCS(0), 2), func() {
		for _, p := range []Partitioner{&CLUGP{Seed: 1}, &DBH{Seed: 1}, &DistributedCLUGP{Nodes: 3, Seed: 1}} {
			// Stop a run partway through its (last) emitting pass.
			emitted := 0
			_, err := RunOutOfCoreOpts(p, src, 8, func(edges []graph.Edge, _ []int32) error {
				if emitted += len(edges); emitted > g.NumEdges()/2 {
					return errStop
				}
				return nil
			}, OutOfCoreOptions{})
			if !errors.Is(err, errStop) {
				t.Fatalf("%s: stopped run returned %v", p.Name(), err)
			}
			res, err := RunOutOfCoreOpts(p, src, 8, nil, OutOfCoreOptions{})
			if err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			if !res.Pipeline.DecodeAhead {
				t.Fatalf("%s: DecodeAhead false over a file source", p.Name())
			}
			var sum int64
			for _, s := range res.Quality.Sizes {
				sum += s
			}
			if sum != int64(g.NumEdges()) {
				t.Fatalf("%s: sizes sum %d, want %d", p.Name(), sum, g.NumEdges())
			}
		}
	})
}
