package partition

import (
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/store"
	"repro/internal/stream"
)

// TestPhaseBoundaryCounts: each CLUGP-family run declares one phase
// boundary, CLUGP-D one for each of its nodes, and the one-pass
// partitioners none, in memory and out of core; every boundary reports
// the heap in use around its collection.
func TestPhaseBoundaryCounts(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 4000, OutDegree: 6, Seed: 9})
	path := writeCGR(t, g)
	want := map[string]int{"CLUGP": 1, "CLUGP-S": 1, "CLUGP-G": 1, "CLUGP-D": 3}
	var ps []Partitioner
	for _, name := range Names() {
		p, err := New(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		ps = append(ps, p)
	}
	ps = append(ps, &DistributedCLUGP{Nodes: 3, Seed: 3})
	for _, p := range ps {
		res, err := Run(p, g, 8, 1)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		results := []*Result{res}
		if p.Name() != "Greedy" {
			mm, err := store.OpenMmap(path)
			if err != nil {
				t.Fatal(err)
			}
			res, err := RunOutOfCoreOpts(p, mm, 8, nil, OutOfCoreOptions{})
			mm.Close()
			if err != nil {
				t.Fatalf("%s out of core: %v", p.Name(), err)
			}
			results = append(results, res)
		}
		for _, res := range results {
			b := res.Pipeline.Boundary
			if b.Collections != want[p.Name()] {
				t.Errorf("%s: %d phase boundaries, want %d", p.Name(), b.Collections, want[p.Name()])
			}
			if (b.HeapBefore == 0 || b.HeapAfter == 0) != (b.Collections == 0) {
				t.Errorf("%s: boundary %+v reports no heap around its collection", p.Name(), b)
			}
		}
	}
}

// TestPhaseBoundaryLeavesFrozenRecord: at CLUGP's phase boundary, right
// after its collection, the live heap has grown over the run's start by
// no more than pass 3's frozen record (master, mirror and degree tables,
// 12 bytes a vertex) and 512 KiB of slack for the run's small state.
// Whatever passes 1 and 2 built beyond the record - the cluster graph,
// the game's table, the clustering's volume table - must be garbage by
// then: keeping the cluster graph reachable from the record adds several
// times the slack.
func TestPhaseBoundaryLeavesFrozenRecord(t *testing.T) {
	const slack = 512 << 10
	g := gen.Web(gen.WebConfig{N: 100000, OutDegree: 8, CopyFactor: 0.6, Seed: 4})
	record := uint64(12 * g.NumVertices)
	for _, k := range []int{32, 256} {
		src := stream.Of(stream.Edges(g, stream.Natural, 0)).Source(g.NumVertices)
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		base := m.HeapInuse
		res, err := RunOutOfCoreOpts(&CLUGP{Seed: 1}, src, k, nil, OutOfCoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		b := res.Pipeline.Boundary
		grew := int64(b.HeapAfter) - int64(base)
		t.Logf("k=%d: heap in use %.2f MB at the start, %.2f -> %.2f MB across the boundary: %.2f MB growth for a %.2f MB record",
			k, float64(base)/(1<<20), float64(b.HeapBefore)/(1<<20), float64(b.HeapAfter)/(1<<20), float64(grew)/(1<<20), float64(record)/(1<<20))
		if grew > int64(record+slack) {
			t.Errorf("k=%d: live heap grew %d bytes by the phase boundary, want at most the %d-byte record and %d bytes of slack",
				k, grew, record, slack)
		}
	}
}
