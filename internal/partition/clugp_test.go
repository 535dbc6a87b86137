package partition

import (
	"strings"
	"testing"

	"repro/internal/graph"
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

// TestCLUGPForgedBaseFailsPass3: a frozen pass-1/2 record may mark a
// vertex as having no master partition (a vertex absent from the stream
// has none), but an edge with such an endpoint must fail pass 3 with an
// error naming the edge, not index out of range. Passes 1 and 2 never
// leave such a record for a vertex of the stream, so the test forges one
// and hands it to transform directly.
func TestCLUGPForgedBaseFailsPass3(t *testing.T) {
	g := cycle4()
	const k = 2
	pass3 := func(master2 int32) error {
		fz := &clugpFrozen{
			master: []int32{0, 1, master2, 1},
			mirror: []int32{-1, -1, 0, -1},
			deg:    []uint32{2, 2, 2, 2},
		}
		sink := &assignSink{}
		sink.ev.Begin(g.NumVertices, k)
		_, _, err := transform(memSource(g), fz, k, 1.0, sink)
		return err
	}
	// The same record with vertex 2 placed runs: the harness itself works.
	if err := pass3(0); err != nil {
		t.Fatalf("valid record: %v", err)
	}
	err := pass3(-1)
	if err == nil || !strings.Contains(err.Error(), "edge 1 (1 -> 2): vertex 2 has no master partition") {
		t.Fatalf("forged record: got %v, want an error naming edge 1 and vertex 2", err)
	}
}
