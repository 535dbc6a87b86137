package partition

import (
	"encoding/binary"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/store"
)

// TestLeastCursorMatchesLeastLoadedAll checks the balance guard's cursor
// against the O(k) scan it replaces over random grow-only size sequences:
// single increments that keep many partitions tied, increments of the
// partition the guard just chose (what pass 3 does), and bursts that lift
// every partition past the cursor's level at once.
func TestLeastCursorMatchesLeastLoadedAll(t *testing.T) {
	rng := newTestRNG(29)
	for _, k := range []int{1, 2, 3, 8, 64, 257} {
		sizes := make([]int64, k)
		var c leastCursor
		for q := 0; q < 20000; q++ {
			switch rng.Intn(8) {
			case 0:
				// A burst: every partition grows by 0-2.
				for p := range sizes {
					sizes[p] += int64(rng.Intn(3))
				}
			case 1, 2:
				// A few random partitions grow by one.
				for n := rng.Intn(4); n > 0; n-- {
					sizes[rng.Intn(k)]++
				}
			}
			got, want := c.next(sizes), leastLoadedAll(sizes)
			if got != want {
				t.Fatalf("k=%d query %d: cursor chose %d (size %d), leastLoadedAll %d (size %d)",
					k, q, got, sizes[got], want, sizes[want])
			}
			sizes[got]++
		}
	}
}

// cutRouteRef is Algorithm 1's candidate walk for a cut edge as first
// transcribed: pick the lower-degree endpoint's master partition, then the
// other one (v's first on equal degrees), then u's and v's mirror
// partitions, each replacing the choice if it is under Lmax and creates
// fewer new replicas, or as many on a lighter partition.
func cutRouteRef(pu, mu, pv, mv int32, du, dv uint32, sizes []int64, lmax int64) int32 {
	cost := func(c int32) int32 {
		n := int32(0)
		if c != pu && c != mu {
			n++
		}
		if c != pv && c != mv {
			n++
		}
		return n
	}
	p, best := pu, int32(3)
	pick := func(c int32) {
		if c < 0 || sizes[c] >= lmax {
			return
		}
		if n := cost(c); n < best || (n == best && sizes[c] < sizes[p]) {
			p, best = c, n
		}
	}
	if dv > du {
		pick(pu)
		pick(pv)
	} else {
		pick(pv)
		pick(pu)
	}
	pick(mu)
	pick(mv)
	return p
}

// TestCutRouteMatchesCandidateWalk checks cutRoute, which reads degrees
// only for a size tie between the two master partitions, against the
// candidate walk over random small cases: few partitions, sizes and
// degrees, so ties, full partitions and mirrors that coincide with a
// master partition are all common.
func TestCutRouteMatchesCandidateWalk(t *testing.T) {
	rng := newTestRNG(31)
	const lmax = 3
	for i := 0; i < 200000; i++ {
		k := 2 + rng.Intn(4)
		sizes := make([]int64, k)
		for p := range sizes {
			sizes[p] = int64(rng.Intn(lmax + 1))
		}
		pu, pv := int32(rng.Intn(k)), int32(rng.Intn(k))
		if pu == pv {
			continue
		}
		sizes[pu] = min(sizes[pu], lmax-1)
		sizes[pv] = min(sizes[pv], lmax-1)
		fz := &clugpFrozen{
			mirror: []int32{int32(rng.Intn(k+1)) - 1, int32(rng.Intn(k+1)) - 1},
			deg:    []uint32{uint32(rng.Intn(3)), uint32(rng.Intn(3))},
		}
		got := fz.cutRoute(0, 1, pu, pv, sizes, lmax)
		want := cutRouteRef(pu, fz.mirror[0], pv, fz.mirror[1], fz.deg[0], fz.deg[1], sizes, lmax)
		if got != want {
			t.Fatalf("pu=%d mu=%d pv=%d mv=%d deg=%v sizes=%v: cutRoute %d, candidate walk %d",
				pu, fz.mirror[0], pv, fz.mirror[1], fz.deg, sizes, got, want)
		}
	}
}

// cycle4 is a directed 4-cycle, 0 -> 1 -> 2 -> 3 -> 0.
func cycle4() *graph.Graph {
	return graph.New(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}})
}

// resumeFromBase writes a CLUGP base file holding sections for g at k and
// resumes a CLUGP run over g from a record at offset 0 that names it, so
// pass 3 runs on the base's frozen state.
func resumeFromBase(t *testing.T, g *graph.Graph, k int, sections []store.CheckpointSection) error {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.cpk")
	hdr := store.Checkpoint{Algorithm: "CLUGP", K: k, NumVertices: g.NumVertices, NumEdges: int64(len(g.Edges))}
	base := hdr
	base.Sections = sections
	_, crc, err := store.WriteCheckpointBase(path+store.CheckpointBaseSuffix, &base)
	if err != nil {
		t.Fatal(err)
	}
	rec := hdr
	rec.AddSection(sectionBase, binary.LittleEndian.AppendUint32(nil, crc))
	_, err = RunOutOfCoreOpts(&CLUGP{}, memSource(g), k, nil,
		OutOfCoreOptions{Checkpoint: &CheckpointOptions{Path: path, Resume: &Resume{Record: &rec}}})
	return err
}

// baseScalars encodes the pass-1/2 scalars of a base file with
// numClusters clusters and every other scalar zero.
func baseScalars(numClusters int) store.CheckpointSection {
	var data []byte
	data = binary.AppendUvarint(data, uint64(numClusters))
	for i := 1; i < clugpScalars; i++ {
		data = binary.AppendUvarint(data, 0)
	}
	return store.CheckpointSection{Name: sectionCLUGPScalars, Data: data}
}

// TestCLUGPForgedBaseFailsPass3: a base file may mark a vertex as having
// no master partition (a vertex absent from the stream has none), but an
// edge with such an endpoint must fail pass 3 with an error naming the
// edge, not index out of range.
func TestCLUGPForgedBaseFailsPass3(t *testing.T) {
	g := cycle4()
	records := func(master2 int32) []store.CheckpointSection {
		fz := &clugpFrozen{
			master: []int32{0, 1, master2, 1},
			mirror: []int32{-1, -1, 0, -1},
			deg:    []uint32{2, 2, 2, 2},
			trace:  Trace{NumClusters: 4},
		}
		return fz.sections()
	}
	// The same base with vertex 2 placed runs: the harness itself works.
	if err := resumeFromBase(t, g, 2, records(0)); err != nil {
		t.Fatalf("valid base: %v", err)
	}
	err := resumeFromBase(t, g, 2, records(-1))
	if err == nil || !strings.Contains(err.Error(), "edge 1 (1 -> 2): vertex 2 has no master partition") {
		t.Fatalf("forged base: got %v, want an error naming edge 1 and vertex 2", err)
	}
}

// TestCLUGPBaseRejectsFourTableLayout: a base file in the earlier layout -
// vertex->cluster, split-from and degree tables plus cluster->partition,
// as four sections - is rejected by the section it lacks, never misread
// as vertex records.
func TestCLUGPBaseRejectsFourTableLayout(t *testing.T) {
	g := cycle4()
	ids := func(vals ...int64) []byte {
		var b []byte
		for _, v := range vals {
			b = binary.AppendUvarint(b, uint64(v+1))
		}
		return b
	}
	var deg []byte
	for range g.NumVertices {
		deg = binary.AppendUvarint(deg, 2)
	}
	old := []store.CheckpointSection{
		{Name: "clugp.assign", Data: ids(0, 0, 1, 1)},
		{Name: "clugp.splitfrom", Data: ids(-1, -1, 0, -1)},
		{Name: "clugp.degree", Data: deg},
		{Name: "clugp.cpart", Data: ids(0, 1)},
		baseScalars(2),
	}
	err := resumeFromBase(t, g, 2, old)
	if err == nil || !strings.Contains(err.Error(), `no "clugp.vertex" section`) {
		t.Fatalf("four-table base: got %v, want an error naming the missing clugp.vertex section", err)
	}
}

// TestCLUGPBaseRejectsOutOfRangeRecords: loadCLUGPBase bounds every
// partition id to [-1, k) and every degree to uint32, and rejects
// truncated and trailing bytes.
func TestCLUGPBaseRejectsOutOfRangeRecords(t *testing.T) {
	const k = 2
	vertex := func(fields ...uint64) store.CheckpointSection {
		var b []byte
		for _, f := range fields {
			b = binary.AppendUvarint(b, f)
		}
		return store.CheckpointSection{Name: sectionCLUGPVertex, Data: b}
	}
	for _, tc := range []struct {
		name string
		vert store.CheckpointSection
		want string
	}{
		{"master k", vertex(k+1, 0, 1), "out of range"},
		{"mirror k", vertex(1, k+1, 1), "out of range"},
		{"degree over uint32", vertex(1, 0, math.MaxUint32+1), "out of range"},
		{"truncated", vertex(1, 0), "truncated"},
		{"trailing", vertex(1, 0, 1, 7), "trailing"},
	} {
		base := &store.Checkpoint{Algorithm: "CLUGP", K: k, NumVertices: 1, NumEdges: 1,
			Sections: []store.CheckpointSection{tc.vert, baseScalars(1)}}
		if _, err := loadCLUGPBase(base); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: got %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
	ok := &store.Checkpoint{Algorithm: "CLUGP", K: k, NumVertices: 1, NumEdges: 1,
		Sections: []store.CheckpointSection{vertex(k, 0, math.MaxUint32), baseScalars(1)}}
	fz, err := loadCLUGPBase(ok)
	if err != nil {
		t.Fatal(err)
	}
	if fz.master[0] != k-1 || fz.mirror[0] != -1 || fz.deg[0] != math.MaxUint32 {
		t.Fatalf("record (%d, %d, %d), want (%d, -1, %d)", fz.master[0], fz.mirror[0], fz.deg[0], k-1, uint32(math.MaxUint32))
	}
}
