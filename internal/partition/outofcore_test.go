package partition

import (
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/stream"
)

// writeCGR writes g to a temp .cgr file and returns its path.
func writeCGR(t *testing.T, g *graph.Graph) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.cgr")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := store.Write(f, g); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fileBackends enumerates the sources a CGR3 file is partitioned from -
// the mmap source and ReaderAtSource over the open file (faultfs with an
// empty fault plan, the read-at decode path) - which the out-of-core
// equivalence criterion must hold over.
type fileBackend struct {
	name string
	open func(path string) (store.File, error)
}

func fileBackends() []fileBackend {
	return []fileBackend{
		{"mmap/CGR3", func(path string) (store.File, error) { return store.OpenMmap(path) }},
		{"readerat/CGR3", func(path string) (store.File, error) { return faultfs.Open(path) }},
	}
}

// outOfCoreNames is every registered algorithm RunOutOfCoreOpts accepts:
// all but Greedy, which it refuses (TestOutOfCoreRefusesGreedy).
func outOfCoreNames() []string {
	var names []string
	for _, name := range Names() {
		if name != "Greedy" {
			names = append(names, name)
		}
	}
	return names
}

// outOfCorePartitioners is every algorithm the out-of-core path must cover:
// the registry it accepts plus sharded ingest.
func outOfCorePartitioners(t *testing.T) []Partitioner {
	var ps []Partitioner
	for _, name := range outOfCoreNames() {
		p, err := New(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return append(ps, &DistributedCLUGP{Nodes: 3, Seed: 3})
}

// TestOutOfCoreMatchesInMemoryNatural is the equivalence criterion of the
// out-of-core data path: partitioning a graph from a .cgr file - assignment
// streamed through Emit, quality accumulated incrementally - must be
// bit-identical (assignment, replication factor, balance) to the in-memory
// natural-order run, for every algorithm including CLUGP-D's sharded
// ingest (which exercises the shard windows), on every source.
func TestOutOfCoreMatchesInMemoryNatural(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 3000, OutDegree: 6, IntraSite: 0.85, Seed: 31})
	k := 8
	for _, fb := range fileBackends() {
		t.Run(fb.name, func(t *testing.T) {
			path := writeCGR(t, g)
			for _, p := range outOfCorePartitioners(t) {
				mem, err := RunStreamed(p, stream.Of(g.Edges).Source(g.NumVertices), stream.Natural, k)
				if err != nil {
					t.Fatalf("%s in-memory: %v", p.Name(), err)
				}

				src, err := fb.open(path)
				if err != nil {
					t.Fatal(err)
				}
				var streamed []int32
				ooc, err := RunOutOfCoreOpts(p, src, k, func(edges []graph.Edge, assign []int32) error {
					streamed = append(streamed, assign...)
					return nil
				}, OutOfCoreOptions{})
				src.Close()
				if err != nil {
					t.Fatalf("%s out-of-core: %v", p.Name(), err)
				}

				if len(streamed) != len(mem.Assign) {
					t.Fatalf("%s: emitted %d assignments, want %d", p.Name(), len(streamed), len(mem.Assign))
				}
				for i := range streamed {
					if streamed[i] != mem.Assign[i] {
						t.Fatalf("%s: out-of-core diverges from in-memory at edge %d (%d vs %d)",
							p.Name(), i, streamed[i], mem.Assign[i])
					}
				}
				if ooc.Quality.ReplicationFactor != mem.Quality.ReplicationFactor {
					t.Fatalf("%s: RF %v != %v", p.Name(), ooc.Quality.ReplicationFactor, mem.Quality.ReplicationFactor)
				}
				if ooc.Quality.RelativeBalance != mem.Quality.RelativeBalance {
					t.Fatalf("%s: balance %v != %v", p.Name(), ooc.Quality.RelativeBalance, mem.Quality.RelativeBalance)
				}
				if ooc.Assign != nil {
					t.Fatalf("%s: out-of-core result materialized its assignment", p.Name())
				}
			}
		})
	}
}

// TestDistributedFileShardingMatchesViewSharding: CLUGP-D's ingest nodes
// over windows of a file source must equal the same run over in-memory
// view slices, on every source.
func TestDistributedFileShardingMatchesViewSharding(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 4000, OutDegree: 6, IntraSite: 0.85, Seed: 32})
	d := &DistributedCLUGP{Nodes: 4, Seed: 7}

	fromView := partitionAll(t, d, stream.Of(g.Edges).Source(g.NumVertices), 8)

	for _, fb := range fileBackends() {
		t.Run(fb.name, func(t *testing.T) {
			src, err := fb.open(writeCGR(t, g))
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			fromFile, _ := collectAssignments(t, d, src, 8)
			if len(fromFile) != len(fromView) {
				t.Fatalf("file sharding emitted %d assignments, view sharding %d", len(fromFile), len(fromView))
			}
			for i := range fromView {
				if fromFile[i] != fromView[i] {
					t.Fatalf("file sharding diverges from view sharding at edge %d", i)
				}
			}
		})
	}
}

// sampledSource calls sample after every few blocks it hands out, so a
// bounded-memory check sees every pass of a run - CLUGP's cluster-graph
// build included, which emits nothing.
type sampledSource struct {
	stream.Source
	every  int
	blocks int
	sample func()
}

func (s *sampledSource) NextBlock() ([]graph.Edge, error) {
	blk, err := s.Source.NextBlock()
	if s.blocks++; s.blocks%s.every == 0 {
		s.sample()
	}
	return blk, err
}

// TestOutOfCoreBoundedMemory is the bounded-memory criterion: streaming the
// cmd/clugp code path (RunOutOfCoreOpts over a store.MmapSource) on a graph
// whose edges dominate its vertices must keep live heap well below the
// materialized edge-list size. Live heap is sampled after forced
// collections every few blocks of every pass (sampledSource) and once
// more after the run, so the assertion sees actual reachable memory
// throughout the run.
//
// A second graph with twice the edges over the same vertices measures the
// slope: the growth it adds over the first graph is held to the same
// budget times the edge lists' difference. Fixed buffers (the decode
// ring, the evaluator's apply ring) cancel out of that difference, so the
// slope judges what grows with |E| apart from what does not.
func TestOutOfCoreBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates a large graph")
	}
	// |E| = 600k edges = 4.8 MB materialized; |V| = 3k vertices.
	g := gen.Web(gen.WebConfig{N: 3000, OutDegree: 200, IntraSite: 0.9, Seed: 33})
	edgeBytes := int64(g.NumEdges()) * int64(8) // sizeof(graph.Edge)
	if g.NumEdges() < 100*g.NumVertices {
		t.Fatalf("test graph not edge-dominated: %d vertices, %d edges", g.NumVertices, g.NumEdges())
	}
	path := writeCGR(t, g)
	g = gen.Web(gen.WebConfig{N: 3000, OutDegree: 400, IntraSite: 0.9, Seed: 33})
	edgeBytes2 := int64(g.NumEdges()) * int64(8)
	if g.NumVertices != 3000 || edgeBytes2 < 19*edgeBytes/10 {
		t.Fatalf("doubled graph has %d vertices and %d edge bytes, against %d", g.NumVertices, edgeBytes2, edgeBytes)
	}
	path2 := writeCGR(t, g)
	g = nil // the whole point: the graph must not be resident

	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	algorithms := []struct {
		p Partitioner
		// budget is the allowed live-heap growth as a fraction of the
		// materialized edge list. CLUGP's build holds one 4-byte cluster
		// id per crossing edge during its second stream pass (a fraction
		// of |E| on a clustered graph; a layout of 8 bytes or more per
		// crossing edge fails it); the one-pass heuristics hold only
		// O(|V|) state and block buffers.
		budget float64
	}{
		{&DBH{Seed: 1}, 0.25},
		{&CLUGP{Seed: 1}, 0.45},
	}
	// growths runs every algorithm in turn over the file at path, whose
	// edge list is edgeBytes materialized, and returns each run's peak
	// live-heap growth over the heap before the file was opened.
	growths := func(path string, edgeBytes int64) []int64 {
		base := liveHeap()
		mm, err := store.OpenMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		defer mm.Close()
		var out []int64
		for _, tc := range algorithms {
			var peak int64
			sample := func() {
				if live := liveHeap(); live > peak {
					peak = live
				}
			}
			src := &sampledSource{Source: mm, every: 4, sample: sample}
			if _, err := RunOutOfCoreOpts(tc.p, src, 8, nil, OutOfCoreOptions{}); err != nil {
				t.Fatalf("%s: %v", tc.p.Name(), err)
			}
			sample()
			t.Logf("%s: live heap growth %.2f MB vs %.2f MB materialized edges (budget %.0f%%, %d blocks sampled)",
				tc.p.Name(), float64(peak-base)/(1<<20), float64(edgeBytes)/(1<<20), 100*tc.budget, src.blocks)
			out = append(out, peak-base)
		}
		return out
	}

	grew, grew2 := growths(path, edgeBytes), growths(path2, edgeBytes2)
	for i, tc := range algorithms {
		limit := int64(tc.budget * float64(edgeBytes))
		if grew[i] > limit {
			t.Fatalf("%s: live heap grew %d bytes, budget %d (%.0f%% of the %d-byte edge list)",
				tc.p.Name(), grew[i], limit, 100*tc.budget, edgeBytes)
		}
		slope := grew2[i] - grew[i]
		slopeLimit := int64(tc.budget * float64(edgeBytes2-edgeBytes))
		t.Logf("%s: doubling |E| added %.2f MB of live heap growth (budget %.2f MB)",
			tc.p.Name(), float64(slope)/(1<<20), float64(slopeLimit)/(1<<20))
		if slope > slopeLimit {
			t.Fatalf("%s: %d more edge bytes grew live heap by %d more bytes, budget %d (%.0f%%)",
				tc.p.Name(), edgeBytes2-edgeBytes, slope, slopeLimit, 100*tc.budget)
		}
	}
}

// TestOutOfCoreResidentMapping holds the term TestOutOfCoreBoundedMemory
// cannot see, which is not on the Go heap: the pages of the input mapping
// the process keeps resident. A pass drops the mapped pages it has decoded
// in fixed steps, so the mapping's resident bytes, read from
// /proc/self/smaps after every block of every pass of DBH and CLUGP, stay
// under a constant on a file of at least eight steps and on its
// |E|-doubled twin. Keeping the decoded pages would hold the whole file.
func TestOutOfCoreResidentMapping(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("the mapped input is released through madvise on Linux only")
	}
	if testing.Short() {
		t.Skip("writes multi-megabyte graphs")
	}
	// The store releases in 256 KiB steps. The bound is four of them: the
	// step the decoder is in, the block it decodes and the kernel's
	// fault-around window, with room.
	const step, bound = 256 << 10, 1 << 20
	for _, outDegree := range []int{50, 100} {
		g := gen.Web(gen.WebConfig{N: 20000, OutDegree: outDegree, IntraSite: 0.3, Seed: 33})
		path := writeCGR(t, g)
		mm, err := store.OpenMmap(path)
		if err != nil {
			t.Fatal(err)
		}
		if !mm.Mapped() || mm.SizeBytes() < 8*step {
			t.Fatalf("%s: mapped %v, %d bytes; want a mapping of at least %d", path, mm.Mapped(), mm.SizeBytes(), 8*step)
		}
		for _, p := range []Partitioner{&DBH{Seed: 1}, &CLUGP{Seed: 1}} {
			var peak int64
			src := &sampledSource{Source: mm, every: 1, sample: func() {
				rss, found := mappedResident(t, path)
				if !found {
					t.Fatalf("no mapping of %s in /proc/self/smaps", path)
				}
				peak = max(peak, rss)
			}}
			if _, err := RunOutOfCoreOpts(p, src, 8, nil, OutOfCoreOptions{}); err != nil {
				t.Fatalf("%s: %v", p.Name(), err)
			}
			t.Logf("%s over %d edges: mapping resident at most %.2f MB of a %.2f MB file (%d blocks sampled)",
				p.Name(), mm.Len(), float64(peak)/(1<<20), float64(mm.SizeBytes())/(1<<20), src.blocks)
			if peak == 0 || peak > bound {
				t.Fatalf("%s: mapping resident peak %d bytes, want within (0, %d]", p.Name(), peak, bound)
			}
		}
		mm.Close()
	}
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

// TestOutOfCoreRefusesGreedy: a stored-order stream gives Greedy no
// balance term, so RunOutOfCoreOpts refuses it with an error naming the
// cause instead of putting every edge on one partition. The in-memory
// executor keeps it.
func TestOutOfCoreRefusesGreedy(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 1500, OutDegree: 5, Seed: 34})
	emitted := 0
	_, err := RunOutOfCoreOpts(&Greedy{}, stream.Of(g.Edges).Source(g.NumVertices), 16,
		func(edges []graph.Edge, _ []int32) error { emitted += len(edges); return nil }, OutOfCoreOptions{})
	if err == nil || !strings.Contains(err.Error(), "no balance term") {
		t.Fatalf("out-of-core Greedy: err %v, want a refusal naming the missing balance term", err)
	}
	if emitted != 0 {
		t.Fatalf("refused run emitted %d assignments", emitted)
	}
	res, err := RunStreamed(&Greedy{}, stream.NewView(g, stream.Random, 3).Source(g.NumVertices), stream.Random, 16)
	if err != nil {
		t.Fatalf("in-memory Greedy: %v", err)
	}
	if res.Quality.RelativeBalance > 1.1 {
		t.Fatalf("in-memory Greedy balance %.3f", res.Quality.RelativeBalance)
	}
}

// TestRunOutOfCoreQualityMatchesEvaluate: the quality accumulated in the
// streaming pass must equal a from-scratch evaluation of the emitted
// assignment, field for field.
func TestRunOutOfCoreQualityMatchesEvaluate(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 1500, OutDegree: 5, Seed: 34})
	src := stream.Of(g.Edges).Source(g.NumVertices)
	assign, res := collectAssignments(t, &HDRF{}, src, 16)
	want, err := metrics.Evaluate(src, assign, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Quality, want) {
		t.Fatalf("in-pass quality %+v, reference %+v", res.Quality, want)
	}
}

// TestRunStreamedQualityMatchesEvaluate: in-memory runs score in the same
// pass that writes the assignment, so their quality must equal the
// independent reference, metrics.Evaluate over the captured assignment,
// field for field - for every algorithm, at one, one word's worth and more
// than one word of partitions.
func TestRunStreamedQualityMatchesEvaluate(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 2000, OutDegree: 6, IntraSite: 0.85, Seed: 35})
	for _, p := range append(outOfCorePartitioners(t), &Greedy{}) {
		for _, k := range []int{1, 8, 65} {
			res, err := RunStreamed(p, stream.NewView(g, p.PreferredOrder(), 3).Source(g.NumVertices), p.PreferredOrder(), k)
			if err != nil {
				t.Fatalf("%s k=%d: %v", p.Name(), k, err)
			}
			want, err := metrics.Evaluate(res.Stream, res.Assign, k)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(res.Quality, want) {
				t.Fatalf("%s k=%d: in-pass quality %+v, reference %+v", p.Name(), k, res.Quality, want)
			}
		}
	}
}

// TestRunOutOfCoreRejectsBadK covers the shared precondition on the serial
// streaming pass.
func TestRunOutOfCoreRejectsBadK(t *testing.T) {
	src := stream.Of([]graph.Edge{{Src: 0, Dst: 1}}).Source(2)
	if _, err := RunOutOfCoreOpts(&Hashing{}, src, 0, nil, OutOfCoreOptions{}); err == nil {
		t.Fatal("k=0 accepted")
	}
}
