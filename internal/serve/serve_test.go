package serve

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/stream"
)

// savedResult runs algorithm on a small synthetic web graph at k partitions
// and returns its run result alongside the saved form, pushed through the
// file codec so the conformance matrix covers the full save/load path, not
// just the in-memory conversion.
func savedResult(t testing.TB, algorithm string, k int) (*partition.Result, *store.Result) {
	t.Helper()
	g := gen.ErdosRenyi(300, 1200, 7)
	p, err := partition.New(algorithm, 42)
	if err != nil {
		t.Fatal(err)
	}
	run, err := partition.Run(p, g, k, 42)
	if err != nil {
		t.Fatal(err)
	}
	saved, err := FromRun(run)
	if err != nil {
		t.Fatalf("FromRun: %v", err)
	}
	var buf bytes.Buffer
	if err := store.WriteResult(&buf, saved); err != nil {
		t.Fatalf("WriteResult: %v", err)
	}
	loaded, err := store.ReadResult(&buf)
	if err != nil {
		t.Fatalf("ReadResult: %v", err)
	}
	return run, loaded
}

// referenceRoute recomputes RouteEdge from the raw result tables with the
// obvious quadratic-free but slice-based algorithm, independent of the
// word-at-a-time implementation under test.
func referenceRoute(r *store.Result, src, dst graph.VertexID) int32 {
	pick := func(cands []int32) int32 {
		best := int32(-1)
		for _, p := range cands {
			if best < 0 || r.Sizes[p] < r.Sizes[best] {
				best = p
			}
		}
		return best
	}
	if p := pick(r.Replicas.Intersect(src, dst, nil)); p >= 0 {
		return p
	}
	if p := pick(r.Replicas.Union(src, dst, nil)); p >= 0 {
		return p
	}
	all := make([]int32, r.K)
	for i := range all {
		all[i] = int32(i)
	}
	return pick(all)
}

// TestConformanceMatrix differential-tests every snapshot query against
// direct reads of the underlying Result/ReplicaSets, across algorithms and
// k spanning the 64-bit word boundary. The serving path (FromRun -> codec
// round-trip -> NewSnapshot -> query) must agree bit-for-bit with the
// offline data it was built from. The "flat" leaf keeps the subtest ids
// stable from when a second table layout existed.
func TestConformanceMatrix(t *testing.T) {
	for _, algorithm := range []string{"Hashing", "HDRF", "CLUGP"} {
		for _, k := range []int{3, 64, 65, 128} {
			run, loaded := savedResult(t, algorithm, k)
			t.Run(fmt.Sprintf("%s/k=%d/flat", algorithm, k), func(t *testing.T) {
				snap, err := NewSnapshot(loaded, Options{})
				if err != nil {
					t.Fatal(err)
				}
				if snap.K() != k || snap.NumVertices() != run.NumVertices ||
					snap.NumEdges() != int64(len(run.Assign)) {
					t.Fatalf("snapshot geometry %d/%d/%d disagrees with run",
						snap.K(), snap.NumVertices(), snap.NumEdges())
				}
				// Partition sizes must match the run's quality accounting.
				for p, sz := range run.Quality.Sizes {
					if snap.Size(p) != sz {
						t.Fatalf("size[%d] = %d, want %d", p, snap.Size(p), sz)
					}
				}
				rs := loaded.Replicas
				var scratch, direct []int32
				for v := 0; v < snap.NumVertices(); v++ {
					id := graph.VertexID(v)
					direct = rs.Partitions(id, direct[:0])
					scratch, err = snap.Replicas(id, scratch[:0])
					if err != nil {
						t.Fatal(err)
					}
					if len(scratch) != len(direct) {
						t.Fatalf("vertex %d: %d replicas, want %d", v, len(scratch), len(direct))
					}
					for i := range direct {
						if scratch[i] != direct[i] {
							t.Fatalf("vertex %d replica %d = %d, want %d", v, i, scratch[i], direct[i])
						}
					}
					if n, err := snap.Count(id); err != nil || n != rs.Count(id) {
						t.Fatalf("vertex %d count = %d (%v), want %d", v, n, err, rs.Count(id))
					}
					primary, err := snap.Primary(id)
					if err != nil {
						t.Fatal(err)
					}
					want := int32(-1)
					if len(direct) > 0 {
						want = direct[0] // Partitions appends in ascending order
					}
					if primary != want {
						t.Fatalf("vertex %d primary = %d, want %d", v, primary, want)
					}
				}
				// Edge routing: replayed stream edges (intersection hits by
				// construction) plus synthetic pairs exercising the union
				// and cold branches.
				probe := func(src, dst graph.VertexID) {
					got, err := snap.RouteEdge(src, dst)
					if err != nil {
						t.Fatal(err)
					}
					if want := referenceRoute(loaded, src, dst); got != want {
						t.Fatalf("route(%d,%d) = %d, want %d", src, dst, got, want)
					}
				}
				for v := 0; v < snap.NumVertices()-1; v += 7 {
					probe(graph.VertexID(v), graph.VertexID(v+1))
				}
				// Out-of-range ids reject, including the u32 extremes.
				for _, bad := range []graph.VertexID{
					graph.VertexID(snap.NumVertices()),
					graph.VertexID(snap.NumVertices() + 1),
					^graph.VertexID(0),
				} {
					if _, err := snap.Primary(bad); err != ErrOutOfRange {
						t.Fatalf("Primary(%d) err = %v, want ErrOutOfRange", bad, err)
					}
					if _, err := snap.Count(bad); err != ErrOutOfRange {
						t.Fatalf("Count(%d) err = %v, want ErrOutOfRange", bad, err)
					}
					if _, err := snap.Replicas(bad, nil); err != ErrOutOfRange {
						t.Fatalf("Replicas(%d) err = %v, want ErrOutOfRange", bad, err)
					}
					if _, err := snap.RouteEdge(0, bad); err != ErrOutOfRange {
						t.Fatalf("RouteEdge(0,%d) err = %v, want ErrOutOfRange", bad, err)
					}
					if _, err := snap.RouteEdge(bad, 0); err != ErrOutOfRange {
						t.Fatalf("RouteEdge(%d,0) err = %v, want ErrOutOfRange", bad, err)
					}
				}
			})
		}
	}
}

func TestSnapshotEmptyGraph(t *testing.T) {
	b, err := NewBuilder(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(b.Result("DBH", "natural"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.NumVertices() != 0 || snap.NumEdges() != 0 {
		t.Fatalf("empty snapshot reports %d vertices, %d edges", snap.NumVertices(), snap.NumEdges())
	}
	if _, err := snap.Primary(0); err != ErrOutOfRange {
		t.Fatalf("Primary(0) on empty graph err = %v", err)
	}
	if _, err := snap.RouteEdge(0, 0); err != ErrOutOfRange {
		t.Fatalf("RouteEdge on empty graph err = %v", err)
	}
}

// TestBuilderEmptyRun: a Builder chained onto a run that emits nothing
// still seals an empty table of the stream's shape (its evaluator makes
// the table lazily, and Result asks for it before Finish), equal byte
// for byte to FromRun over the same run, and both serve.
func TestBuilderEmptyRun(t *testing.T) {
	const nv, k = 9, 65
	b, err := NewBuilder(nv, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.RunOutOfCoreOpts(&partition.CLUGP{}, stream.View{}.Source(nv), k, b.Observe, partition.OutOfCoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fromRun, err := FromRun(res)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := store.WriteResult(&want, fromRun); err != nil {
		t.Fatal(err)
	}
	built := b.Result(res.Algorithm, res.Order.String())
	if built.NumVertices != nv || built.K != k || built.NumEdges != 0 {
		t.Fatalf("empty Builder result is %d vertices, k=%d, %d edges", built.NumVertices, built.K, built.NumEdges)
	}
	var got bytes.Buffer
	if err := store.WriteResult(&got, built); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("empty Builder result saves %d bytes that differ from FromRun's %d", got.Len(), want.Len())
	}
	for _, r := range []*store.Result{built, fromRun} {
		snap, err := NewSnapshot(r, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if snap.NumVertices() != nv {
			t.Fatalf("snapshot of an empty run has %d vertices, want %d", snap.NumVertices(), nv)
		}
	}
}

func TestRouteEdgeColdBranches(t *testing.T) {
	// Hand-built tables: vertex 0 in {1, 2}, vertex 1 in {2, 3}, vertices
	// 2 and 3 unreplicated. Sizes make partition 3 lightest, then 2.
	b, err := NewBuilder(4, 5)
	if err != nil {
		t.Fatal(err)
	}
	edges := []graph.Edge{
		{Src: 0, Dst: 0}, {Src: 0, Dst: 0}, {Src: 0, Dst: 0},
		{Src: 1, Dst: 1}, {Src: 1, Dst: 1},
		{Src: 0, Dst: 1},
	}
	assign := []int32{1, 1, 1, 3, 3, 2}
	if err := b.Observe(edges, assign); err != nil {
		t.Fatal(err)
	}
	snap, err := NewSnapshot(b.Result("hand", "natural"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if snap.Size(1) != 3 || snap.Size(2) != 1 || snap.Size(3) != 2 {
		t.Fatalf("unexpected sizes %v", snap.AppendSizes(nil))
	}
	cases := []struct {
		src, dst graph.VertexID
		want     int32
	}{
		{0, 1, 2}, // intersection {2}
		{0, 0, 2}, // self-edge: intersection = P(0) = {1, 2}; size 1 vs 3 -> 2
		{0, 2, 2}, // dst unknown: union = P(0) = {1, 2} -> 2
		{1, 3, 2}, // dst unknown: union = P(1) = {2, 3}; size 1 vs 2 -> 2
		{2, 3, 0}, // both unknown: globally least loaded, ties to lowest id -> 0
	}
	for _, tc := range cases {
		got, err := snap.RouteEdge(tc.src, tc.dst)
		if err != nil {
			t.Fatal(err)
		}
		if got != tc.want {
			t.Errorf("route(%d,%d) = %d, want %d", tc.src, tc.dst, got, tc.want)
		}
	}
}

func TestBuilderRejects(t *testing.T) {
	if _, err := NewBuilder(4, 0); err == nil {
		t.Error("NewBuilder accepted k=0")
	}
	if _, err := NewBuilder(-1, 2); err == nil {
		t.Error("NewBuilder accepted negative vertex count")
	}
	b, err := NewBuilder(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Observe(make([]graph.Edge, 2), make([]int32, 1)); err == nil {
		t.Error("Observe accepted mismatched lengths")
	}
	if err := b.Observe([]graph.Edge{{Src: 0, Dst: 1}}, []int32{2}); err == nil {
		t.Error("Observe accepted an out-of-range partition")
	}
	if err := b.Observe([]graph.Edge{{Src: 0, Dst: 1}}, []int32{-1}); err == nil {
		t.Error("Observe accepted a negative partition")
	}
	b.Result("hand", "natural")
	if err := b.Observe([]graph.Edge{{Src: 0, Dst: 1}}, []int32{0}); err == nil {
		t.Error("Observe after Result wrote into the handed-over tables")
	}
}

// TestFromRunOutOfCore: FromRun packages the table the executor's
// evaluator sealed, so an out-of-core run over an mmap CGR3 file saves
// without a materialized assignment. Its bytes must equal those of a
// Builder chained onto the same run's emit, and those of FromRun over the
// in-memory run of the same natural order.
func TestFromRunOutOfCore(t *testing.T) {
	g := gen.ErdosRenyi(300, 1200, 7)
	var enc bytes.Buffer
	if err := store.Write(&enc, g); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "g.cgr")
	if err := os.WriteFile(path, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := store.OpenMmap(path)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	encode := func(r *store.Result) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := store.WriteResult(&buf, r); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, algorithm := range []string{"Hashing", "HDRF", "CLUGP"} {
		for _, k := range []int{3, 64, 65} {
			t.Run(fmt.Sprintf("%s/k=%d", algorithm, k), func(t *testing.T) {
				newP := func() partition.Partitioner {
					p, err := partition.New(algorithm, 42)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				b, err := NewBuilder(src.NumVertices(), k)
				if err != nil {
					t.Fatal(err)
				}
				res, err := partition.RunOutOfCoreOpts(newP(), src, k, b.Observe, partition.OutOfCoreOptions{})
				if err != nil {
					t.Fatal(err)
				}
				if res.Assign != nil {
					t.Fatal("out-of-core run materialized its assignment")
				}
				saved, err := FromRun(res)
				if err != nil {
					t.Fatal(err)
				}
				mem, err := partition.RunStreamed(newP(), stream.Of(g.Edges).Source(g.NumVertices), stream.Natural, k)
				if err != nil {
					t.Fatal(err)
				}
				fromMem, err := FromRun(mem)
				if err != nil {
					t.Fatal(err)
				}
				want := encode(saved)
				if got := encode(b.Result(res.Algorithm, res.Order.String())); !bytes.Equal(got, want) {
					t.Errorf("Builder on emit saves %d bytes that differ from FromRun's %d", len(got), len(want))
				}
				if got := encode(fromMem); !bytes.Equal(got, want) {
					t.Errorf("in-memory FromRun saves %d bytes that differ from the out-of-core run's %d", len(got), len(want))
				}
			})
		}
	}
}

func TestNewSnapshotRejects(t *testing.T) {
	if _, err := NewSnapshot(nil, Options{}); err == nil {
		t.Error("NewSnapshot accepted nil result")
	}
	_, saved := savedResult(t, "Hashing", 4)
	saved.Sizes = saved.Sizes[:3]
	if _, err := NewSnapshot(saved, Options{}); err == nil {
		t.Error("NewSnapshot accepted len(Sizes) != k")
	}
	_, saved = savedResult(t, "Hashing", 4)
	saved.NumVertices++
	if _, err := NewSnapshot(saved, Options{}); err == nil {
		t.Error("NewSnapshot accepted a replica table with the wrong vertex count")
	}
}

// TestQueryPathZeroAlloc pins the hot-path contract the serve bench gates
// in CI: with a caller-provided scratch slice, every query answers without
// allocating.
func TestQueryPathZeroAlloc(t *testing.T) {
	_, saved := savedResult(t, "HDRF", 65)
	snap, err := NewSnapshot(saved, Options{})
	if err != nil {
		t.Fatal(err)
	}
	scratch := make([]int32, 0, snap.K())
	n := graph.VertexID(snap.NumVertices())
	probe := func() {
		for v := graph.VertexID(0); v < 32; v++ {
			if _, err := snap.Primary(v % n); err != nil {
				t.Fatal(err)
			}
			if _, err := snap.Count(v % n); err != nil {
				t.Fatal(err)
			}
			if _, err := snap.Replicas(v%n, scratch[:0]); err != nil {
				t.Fatal(err)
			}
			if _, err := snap.RouteEdge(v%n, (v+1)%n); err != nil {
				t.Fatal(err)
			}
			if _, err := snap.Primary(^graph.VertexID(0)); err != ErrOutOfRange {
				t.Fatal("expected ErrOutOfRange")
			}
		}
	}
	if allocs := testing.AllocsPerRun(100, probe); allocs != 0 {
		t.Errorf("query path allocates %.1f/run, want 0", allocs)
	}
}

func BenchmarkSnapshotPrimary(b *testing.B) {
	_, saved := savedResult(b, "HDRF", 64)
	snap, err := NewSnapshot(saved, Options{})
	if err != nil {
		b.Fatal(err)
	}
	n := graph.VertexID(snap.NumVertices())
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		if _, err := snap.Primary(graph.VertexID(i) % n); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotRouteEdge(b *testing.B) {
	_, saved := savedResult(b, "HDRF", 64)
	snap, err := NewSnapshot(saved, Options{})
	if err != nil {
		b.Fatal(err)
	}
	n := graph.VertexID(snap.NumVertices())
	b.ReportAllocs()
	for i := 0; b.Loop(); i++ {
		v := graph.VertexID(i) % n
		if _, err := snap.RouteEdge(v, (v+1)%n); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBuilderChainedRunStoppedByEmitError is a race workload for the
// evaluators' applier goroutines: at GOMAXPROCS 2 a run with a Builder
// chained onto its emit is stopped by an emit error mid-stream, leaving
// the executor's evaluator dropped with chunks queued. The Builder then
// holds exactly the edges its Observe accepted, and a second, complete
// run with a fresh Builder saves the same bytes as FromRun. Run under
// -race in CI.
func TestBuilderChainedRunStoppedByEmitError(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(runtime.GOMAXPROCS(0), 2)))
	g := gen.Web(gen.WebConfig{N: 20000, OutDegree: 8, Seed: 56})
	src := stream.Of(g.Edges).Source(g.NumVertices)
	const k = 64
	errStop := errors.New("stop")
	b, err := NewBuilder(g.NumVertices, k)
	if err != nil {
		t.Fatal(err)
	}
	observed := 0
	_, err = partition.RunOutOfCoreOpts(&partition.HDRF{}, src, k, func(edges []graph.Edge, assign []int32) error {
		if err := b.Observe(edges, assign); err != nil {
			return err
		}
		if observed += len(edges); observed > g.NumEdges()/2 {
			return errStop
		}
		return nil
	}, partition.OutOfCoreOptions{})
	if !errors.Is(err, errStop) {
		t.Fatalf("stopped run returned %v", err)
	}
	if got := b.Result("HDRF", "natural").NumEdges; got != int64(observed) {
		t.Fatalf("the stopped run's Builder holds %d edges, its Observe took %d", got, observed)
	}

	b, err = NewBuilder(g.NumVertices, k)
	if err != nil {
		t.Fatal(err)
	}
	res, err := partition.RunOutOfCoreOpts(&partition.HDRF{}, src, k, b.Observe, partition.OutOfCoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	saved, err := FromRun(res)
	if err != nil {
		t.Fatal(err)
	}
	var built, fromRun bytes.Buffer
	if err := store.WriteResult(&built, b.Result(res.Algorithm, res.Order.String())); err != nil {
		t.Fatal(err)
	}
	if err := store.WriteResult(&fromRun, saved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(built.Bytes(), fromRun.Bytes()) {
		t.Fatal("the chained Builder saves bytes that differ from FromRun's")
	}
}
