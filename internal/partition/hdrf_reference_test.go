package partition

import (
	"fmt"
	"math"
	"path/filepath"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/store"
	"repro/internal/stream"
)

// refHDRF is the reference HDRF loop: every edge prices all k partitions in
// ascending order and keeps the first strict maximum, and minsize is
// rescanned whenever the smallest partition grows. HDRF must reproduce its
// assignments exactly.
func refHDRF(t testing.TB, src stream.Source, k int, lam float64) []int32 {
	t.Helper()
	const eps = 1.0
	rs := metrics.NewReplicaSets(src.NumVertices(), k)
	deg := make([]uint32, src.NumVertices())
	sizes := make([]int64, k)
	var maxSize, minSize int64
	out := make([]int32, 0, src.Len())
	err := stream.ForEach(src, func(_ int, blk []graph.Edge) error {
		for _, e := range blk {
			u, v := e.Src, e.Dst
			deg[u]++
			deg[v]++
			du, dv := float64(deg[u]), float64(deg[v])
			thetaU := du / (du + dv)
			thetaV := 1 - thetaU
			gU := 1 + (1 - thetaU)
			gV := 1 + (1 - thetaV)

			spread := float64(maxSize - minSize)
			best := 0
			bestScore := -1.0
			var wu, wv uint64
			for p := 0; p < k; p++ {
				if p&63 == 0 {
					wu = rs.Word(u, p>>6)
					wv = rs.Word(v, p>>6)
				}
				bit := uint64(1) << uint(p&63)
				var crep float64
				if wu&bit != 0 {
					crep += gU
				}
				if wv&bit != 0 {
					crep += gV
				}
				cbal := lam * float64(maxSize-sizes[p]) / (eps + spread)
				if score := crep + cbal; score > bestScore {
					bestScore = score
					best = p
				}
			}
			out = append(out, int32(best))
			sizes[best]++
			rs.Add(u, best)
			rs.Add(v, best)
			if sizes[best] > maxSize {
				maxSize = sizes[best]
			}
			if sizes[best]-1 == minSize {
				minSize = sizes[0]
				for p := 1; p < k; p++ {
					if sizes[p] < minSize {
						minSize = sizes[p]
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// diffHDRF runs HDRF and the reference over edges and fails on the first
// differing assignment. It returns the edges HDRF sent to the full scan.
func diffHDRF(t *testing.T, edges []graph.Edge, n, k int, lam float64) int {
	t.Helper()
	h := &HDRF{BalanceWeight: lam}
	got := partitionAll(t, h, stream.Of(edges).Source(n), k)
	want := refHDRF(t, stream.Of(edges).Source(n), k, lam)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d (%d,%d): HDRF chose %d, the full scan %d", i, edges[i].Src, edges[i].Dst, got[i], want[i])
		}
	}
	return h.fallbacks
}

// TestHDRFMatchesFullScan holds the candidate rule to the full scan, edge
// for edge, across word boundaries of k, both stream orders, forced ties
// and balance weights that make the certificate fire.
func TestHDRFMatchesFullScan(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 3000, OutDegree: 6, IntraSite: 0.7, Seed: 5})
	orders := map[string][]graph.Edge{
		"natural": g.Edges,
		"random":  stream.Edges(g, stream.Random, 9),
	}
	for _, k := range []int{1, 2, 63, 64, 65, 256} {
		for name, edges := range orders {
			t.Run(fmt.Sprintf("k=%d/%s", k, name), func(t *testing.T) {
				diffHDRF(t, edges, g.NumVertices, k, 1.1)
			})
		}
	}

	// A star: every edge shares the hub, whose replica class soon spans
	// all partitions. Disjoint edges: every edge sees k partitions in one
	// class, all at equal sizes once per k edges. A repeated edge: the
	// both-endpoints class is one partition.
	var star, disjoint, repeated []graph.Edge
	for i := 1; i <= 700; i++ {
		star = append(star, graph.Edge{Src: 0, Dst: graph.VertexID(i)})
		disjoint = append(disjoint, graph.Edge{Src: graph.VertexID(2*i - 2), Dst: graph.VertexID(2*i - 1)})
		repeated = append(repeated, graph.Edge{Src: 3, Dst: 4})
	}
	for _, tc := range []struct {
		name  string
		edges []graph.Edge
		n     int
	}{{"star", star, 701}, {"disjoint", disjoint, 1400}, {"repeated", repeated, 5}} {
		for _, k := range []int{3, 64, 65} {
			for _, lam := range []float64{1.1, 1e6} {
				t.Run(fmt.Sprintf("%s/k=%d/lambda=%g", tc.name, k, lam), func(t *testing.T) {
					diffHDRF(t, tc.edges, tc.n, k, lam)
				})
			}
		}
	}

	// lambda 1e-300 makes C_bal vanish next to C_rep, so sizes tie in
	// float and the certificate must send edges to the full scan; 1e308
	// overflows C_bal to +Inf at every size but the largest.
	for _, lam := range []float64{1e6, 1e-300, 1e308} {
		for _, k := range []int{4, 65} {
			t.Run(fmt.Sprintf("lambda=%g/k=%d", lam, k), func(t *testing.T) {
				fb := diffHDRF(t, orders["random"], g.NumVertices, k, lam)
				if lam == 1e-300 && fb == 0 {
					t.Fatal("lambda 1e-300: the certificate never fell back to the full scan")
				}
			})
		}
	}
}

// TestHDRFResumeMatchesFullScan: a crash-and-resume run rebuilds the size
// levels from the durable prefix, so the stitched run equals the full scan.
func TestHDRFResumeMatchesFullScan(t *testing.T) {
	g := checkpointTestGraph()
	const k = 65
	ckPath := filepath.Join(t.TempDir(), "run.cpk")
	crashed := runUntilCrash(t, &HDRF{}, memSource(g), k, ckPath)
	c, _, err := store.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	resumed, _ := resumeFrom(t, "HDRF", memSource(g), k, c, crashed, ckPath)
	got := append(crashed[:c.Offset:c.Offset], resumed...)
	want := refHDRF(t, stream.Of(g.Edges).Source(g.NumVertices), k, 1.1)
	if len(got) != len(want) {
		t.Fatalf("prefix+resume covers %d edges, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("edge %d: resumed run chose %d, the full scan %d", i, got[i], want[i])
		}
	}
}

// FuzzHDRFMatchesScan: random small edge lists, k and lambda; HDRF must
// reject an invalid lambda and otherwise agree with the full scan.
func FuzzHDRFMatchesScan(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 0, 0, 1}, uint8(3), 1.1)
	f.Add([]byte{0, 1, 0, 2, 0, 3, 0, 4, 5, 6}, uint8(64), 1e-300)
	f.Add([]byte{7, 7, 1, 9, 9, 1, 2, 3, 3, 2}, uint8(65), 1e6)
	f.Add([]byte{1, 2, 3, 4}, uint8(0), -1.0)
	f.Fuzz(func(t *testing.T, data []byte, kb uint8, lam float64) {
		const n = 24
		k := 1 + int(kb)%130
		edges := make([]graph.Edge, len(data)/2)
		for i := range edges {
			edges[i] = graph.Edge{Src: graph.VertexID(data[2*i] % n), Dst: graph.VertexID(data[2*i+1] % n)}
		}
		if lam < 0 || math.IsNaN(lam) || math.IsInf(lam, 0) {
			if _, err := RunStreamed(&HDRF{BalanceWeight: lam}, stream.Of(edges).Source(n), stream.Natural, k); err == nil {
				t.Fatalf("lambda %v accepted", lam)
			}
			return
		}
		if lam == 0 {
			lam = 1.1
		}
		diffHDRF(t, edges, n, k, lam)
	})
}

// TestHDRFBalanceWeightValidation: a negative, NaN or infinite lambda is an
// error from the in-memory and the streaming runner, not a run that puts every edge on
// partition 0.
func TestHDRFBalanceWeightValidation(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 200, OutDegree: 3, Seed: 1})
	for _, tc := range []struct {
		lam float64
		ok  bool
	}{
		{0, true}, {1.1, true}, {1e-300, true}, {math.MaxFloat64, true},
		{-1, false}, {-1e-300, false}, {math.NaN(), false}, {math.Inf(1), false}, {math.Inf(-1), false},
	} {
		t.Run(fmt.Sprint(tc.lam), func(t *testing.T) {
			src := stream.Of(g.Edges).Source(g.NumVertices)
			h := &HDRF{BalanceWeight: tc.lam}
			_, errMem := RunStreamed(h, src, stream.Natural, 4)
			_, errStream := RunOutOfCoreOpts(h, src, 4, func([]graph.Edge, []int32) error { return nil }, OutOfCoreOptions{})
			for _, err := range []error{errMem, errStream} {
				if (err == nil) != tc.ok {
					t.Fatalf("lambda %v: err = %v, want ok=%v", tc.lam, err, tc.ok)
				}
			}
		})
	}
}

// TestHDRFCertifiedSpread checks certifiedSpread's bound where it is
// tightest: at the largest certified spread, every replica class must
// still score strictly less one size up, for C_rep up to its maximum of 4
// and lambda across the range the bound accepts.
func TestHDRFCertifiedSpread(t *testing.T) {
	for _, lam := range []float64{0x1p-900, 1e-200, 1e-9, 1e-3, 0.5, 1.1, 3, 1e6, 1e100, 0x1p900} {
		S := certifiedSpread(lam)
		if S < 0 {
			continue
		}
		d := hdrfEps + float64(S)
		for _, x := range []int64{1, 2, S / 3, S / 2, S - 1, S} {
			if x < 1 {
				continue
			}
			for c, g := range []float64{1, 1.5, math.Nextafter(2, 0), 2} {
				if hi, lo := hdrfScore(3, g, g, lam, x, d), hdrfScore(3, g, g, lam, x-1, d); !(hi > lo) {
					t.Fatalf("lambda %g, spread %d, x %d, C_rep %g (case %d): %v not above %v", lam, S, x, 2*g, c, hi, lo)
				}
			}
		}
	}
	if certifiedSpread(1e-300) != -1 || certifiedSpread(1e300) != -1 {
		t.Fatal("lambda outside [2^-900, 2^900] must leave the certificate to pricing")
	}
}
