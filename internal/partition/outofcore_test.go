package partition

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
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

// outOfCorePartitioners is every algorithm the out-of-core path must cover:
// the full registry plus the extension partitioners and sharded ingest.
func outOfCorePartitioners(t *testing.T) []Partitioner {
	var ps []Partitioner
	for _, name := range Names() {
		p, err := New(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	return append(ps,
		&Grid{Seed: 3},
		&DistributedCLUGP{Nodes: 3, Seed: 3},
	)
}

// TestOutOfCoreMatchesInMemoryNatural is the equivalence criterion of the
// out-of-core data path: partitioning a graph from a .cgr file - assignment
// streamed through Emit, quality accumulated incrementally - must be
// bit-identical (assignment, replication factor, balance) to the in-memory
// natural-order run, for every algorithm including CLUGP-D's sharded
// ingest (which exercises the segment readers), on every source.
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
				ooc, err := RunOutOfCore(p, src, k, func(edges []graph.Edge, assign []int32) error {
					streamed = append(streamed, assign...)
					return nil
				})
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

// TestDistributedFileShardingMatchesViewSharding: CLUGP-D's concurrent
// PartitionInto over file segments (one private handle per ingest node on
// the seek backend, one shared mapping on the mmap backend) must equal the
// same run over in-memory view slices, and equal its own sequential
// streaming mode - on every backend over every format.
func TestDistributedFileShardingMatchesViewSharding(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 4000, OutDegree: 6, IntraSite: 0.85, Seed: 32})
	d := &DistributedCLUGP{Nodes: 4, Seed: 7}

	fromView, err := d.Partition(stream.Of(g.Edges).Source(g.NumVertices), 8)
	if err != nil {
		t.Fatal(err)
	}

	for _, fb := range fileBackends() {
		t.Run(fb.name, func(t *testing.T) {
			src, err := fb.open(writeCGR(t, g))
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			fromFile := make([]int32, src.Len())
			if err := d.PartitionInto(src, 8, fromFile); err != nil {
				t.Fatal(err)
			}
			for i := range fromView {
				if fromFile[i] != fromView[i] {
					t.Fatalf("file sharding diverges from view sharding at edge %d", i)
				}
			}
		})
	}
}

// TestOutOfCoreBoundedMemory is the bounded-memory criterion: streaming the
// cmd/clugp code path (RunOutOfCore over a store.MmapSource) on a graph
// whose edges dominate its vertices must keep live heap well below the
// materialized edge-list size. Live heap is sampled inside the Emit
// callback after forced collections, so the assertion sees actual
// reachable memory at the hot point of the run.
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
	g = nil // the whole point: the graph must not be resident

	liveHeap := func() int64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	base := liveHeap()

	src, err := store.OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()

	for _, tc := range []struct {
		p Partitioner
		// budget is the allowed live-heap growth as a fraction of the
		// materialized edge list. CLUGP's pass 2 packs the crossing-edge
		// cluster pairs (a fraction of |E| on a clustered graph); the
		// one-pass heuristics hold only O(|V|) state and block buffers.
		budget float64
	}{
		{&DBH{Seed: 1}, 0.25},
		{&CLUGP{Seed: 1}, 0.5},
	} {
		var peak int64
		emits := 0
		_, err = RunOutOfCore(tc.p, src, 8, func(edges []graph.Edge, assign []int32) error {
			if emits++; emits%16 == 0 {
				if live := liveHeap(); live > peak {
					peak = live
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tc.p.Name(), err)
		}
		if live := liveHeap(); live > peak {
			peak = live
		}
		growth := peak - base
		limit := int64(tc.budget * float64(edgeBytes))
		t.Logf("%s: live heap growth %.2f MB vs %.2f MB materialized edges (budget %.0f%%)",
			tc.p.Name(), float64(growth)/(1<<20), float64(edgeBytes)/(1<<20), 100*tc.budget)
		if growth > limit {
			t.Fatalf("%s: live heap grew %d bytes, budget %d (%.0f%% of the %d-byte edge list)",
				tc.p.Name(), growth, limit, 100*tc.budget, edgeBytes)
		}
	}
}

// TestRunOutOfCoreQualityMatchesEvaluate: the incrementally accumulated
// quality must equal a from-scratch evaluation of the emitted assignment.
func TestRunOutOfCoreQualityMatchesEvaluate(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 1500, OutDegree: 5, Seed: 34})
	src := stream.Of(g.Edges).Source(g.NumVertices)
	var assign []int32
	res, err := RunOutOfCore(&HDRF{}, src, 16, func(edges []graph.Edge, as []int32) error {
		assign = append(assign, as...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := RunStreamed(&HDRF{}, src, stream.Natural, 16)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Quality.ReplicationFactor-mem.Quality.ReplicationFactor) != 0 {
		t.Fatalf("incremental RF %v != recomputed %v", res.Quality.ReplicationFactor, mem.Quality.ReplicationFactor)
	}
	for i := range assign {
		if assign[i] != mem.Assign[i] {
			t.Fatalf("assignment diverges at %d", i)
		}
	}
}

// TestRunOutOfCoreRejectsBadK covers the shared precondition.
func TestRunOutOfCoreRejectsBadK(t *testing.T) {
	src := stream.Of([]graph.Edge{{Src: 0, Dst: 1}}).Source(2)
	if _, err := RunOutOfCore(&Hashing{}, src, 0, nil); err == nil {
		t.Fatal("k=0 accepted")
	}
}
