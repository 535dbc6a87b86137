package game

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/xrand"
)

// refPlayBatch is the reference best-response dynamics: every step scans
// all k partitions in ascending order and moves only on a saving above
// 1e-9. playBatch must reproduce its choices, rounds and moves exactly.
func refPlayBatch(cg *cluster.Graph, cfg Config, lo, hi int, out []int32) (rounds int, moves int64) {
	k := cfg.K
	rng := xrand.New(cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(lo+1)))
	size := make([]int64, hi-lo)
	for c := lo; c < hi; c++ {
		size[c-lo] = cg.WeightOf(cluster.ID(c))
	}
	load := make([]int64, k)
	for c := lo; c < hi; c++ {
		p := int32(rng.Intn(k))
		out[c-lo] = p
		load[p] += size[c-lo]
	}
	lambda := cfg.Lambda
	if lambda == 0 {
		var sumW, sumInterDirected int64
		for c := lo; c < hi; c++ {
			sumW += size[c-lo]
			sumInterDirected += cg.TotalAdjacency(cluster.ID(c))
		}
		sumInterDirected /= 2
		if sumW > 0 {
			lambda = float64(k*k) * float64(sumInterDirected) / (float64(sumW) * float64(sumW))
		} else {
			lambda = 1
		}
	}
	wLoad := 2 * cfg.RelWeight * lambda / float64(k)
	wCut := 2 * (1 - cfg.RelWeight) * 0.5
	wTo := make([]float64, k)

	for rounds = 1; ; rounds++ {
		changed := false
		for c := lo; c < hi; c++ {
			sz := float64(size[c-lo])
			cur := out[c-lo]
			for p := range wTo {
				wTo[p] = 0
			}
			var totalW float64
			for _, a := range cg.Adj[c] {
				if int(a.To) < lo || int(a.To) >= hi {
					continue
				}
				wTo[out[int(a.To)-lo]] += float64(a.W)
				totalW += float64(a.W)
			}
			best := cur
			bestCost := wLoad*sz*float64(load[cur]) + wCut*(totalW-wTo[cur])
			for p := int32(0); p < int32(k); p++ {
				if p == cur {
					continue
				}
				cost := wLoad*sz*float64(load[p]+size[c-lo]) + wCut*(totalW-wTo[p])
				if cost < bestCost-1e-9 {
					bestCost = cost
					best = p
				}
			}
			if best != cur {
				load[cur] -= size[c-lo]
				load[best] += size[c-lo]
				out[c-lo] = best
				moves++
				changed = true
			}
		}
		if !changed || rounds == cfg.MaxRounds {
			return rounds, moves
		}
	}
}

// refSolve plays Solve's batches serially with refPlayBatch.
func refSolve(cg *cluster.Graph, cfg Config) *Assignment {
	cfg = cfg.withDefaults()
	m := cg.NumClusters
	out := &Assignment{Partition: make([]int32, m)}
	batch := cfg.BatchSize
	if batch <= 0 || batch > m {
		batch = m
	}
	for lo := 0; lo < m; lo += batch {
		hi := min(lo+batch, m)
		rounds, moves := refPlayBatch(cg, cfg, lo, hi, out.Partition[lo:hi])
		out.Rounds = max(out.Rounds, rounds)
		out.Moves += moves
		out.Batches++
	}
	return out
}

// serialSolve plays Solve's batches in order on one scratch, so the test
// can read how many best responses fell back to the full scan.
func serialSolve(cg *cluster.Graph, cfg Config, sc *scratch) *Assignment {
	cfg = cfg.withDefaults()
	m := cg.NumClusters
	out := &Assignment{Partition: make([]int32, m)}
	batch := cfg.BatchSize
	if batch <= 0 || batch > m {
		batch = m
	}
	for lo := 0; lo < m; lo += batch {
		hi := min(lo+batch, m)
		rounds, moves := playBatch(cg, cfg, lo, hi, out.Partition[lo:hi], sc)
		out.Rounds = max(out.Rounds, rounds)
		out.Moves += moves
		out.Batches++
	}
	return out
}

// uniformGraph is an adversarial instance for tie-breaking: n clusters of
// identical weight on a ring whose arcs all weigh w, so many strategies
// cost exactly the same.
func uniformGraph(n int, intra, w int64) *cluster.Graph {
	cg := &cluster.Graph{NumClusters: n, Intra: make([]int64, n), Adj: make([][]cluster.Arc, n)}
	for c := 0; c < n; c++ {
		cg.Intra[c] = intra
		cg.TotalIntra += intra
		if n > 2 && w > 0 {
			cg.Adj[c] = []cluster.Arc{{To: cluster.ID((c + n - 1) % n), W: uint32(w)}, {To: cluster.ID((c + 1) % n), W: uint32(w)}}
			cg.TotalInter += w
		}
	}
	return cg
}

// randomGraph is a random cluster graph with skewed weights and arcs.
func randomGraph(n, arcs int, seed uint64) *cluster.Graph {
	rng := xrand.New(seed)
	w := make(map[[2]int]uint32)
	for i := 0; i < arcs; i++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		w[[2]int{a, b}] += uint32(1 + rng.Intn(5))
	}
	cg := &cluster.Graph{NumClusters: n, Intra: make([]int64, n), Adj: make([][]cluster.Arc, n)}
	for c := range cg.Intra {
		cg.Intra[c] = int64(rng.Intn(40))
		cg.TotalIntra += cg.Intra[c]
	}
	for c := 0; c < n; c++ {
		for d := 0; d < n; d++ {
			key := [2]int{min(c, d), max(c, d)}
			if c != d && w[key] > 0 {
				cg.Adj[c] = append(cg.Adj[c], cluster.Arc{To: cluster.ID(d), W: w[key]})
			}
		}
	}
	for _, v := range w {
		cg.TotalInter += int64(v)
	}
	return cg
}

// TestPlayBatchMatchesFullScan holds the certified best response to the
// full-scan reference: identical partitions, rounds and moves on random
// and tie-heavy cluster graphs, over batch sizes, relative weights and k
// both below and above the cluster count. The tiny-lambda cases put load
// costs within 1e-9 of each other, which only the fallback scan can
// resolve; the test requires that it ran.
func TestPlayBatchMatchesFullScan(t *testing.T) {
	web := testClusterGraph(t, 3000, 48, 21)
	graphs := []struct {
		name string
		cg   *cluster.Graph
	}{
		{"web", web},
		{"random", randomGraph(200, 900, 5)},
		{"uniform-ring", uniformGraph(120, 3, 2)},
		{"uniform-isolated", uniformGraph(90, 5, 0)},
	}
	cfgs := []Config{
		{},
		{Lambda: 1e-13},
		{Lambda: 1e-7},
		{RelWeight: 0.3},
		{RelWeight: 0.8, BatchSize: 1},
		{BatchSize: 32},
		{MaxRounds: 2},
	}
	var sc scratch
	for _, g := range graphs {
		for _, k := range []int{1, 2, 3, 64, 256, 300} {
			for i, cfg := range cfgs {
				cfg.K, cfg.Seed = k, uint64(7*k+i)
				name := fmt.Sprintf("%s/k=%d/cfg=%d", g.name, k, i)
				want := refSolve(g.cg, cfg)
				got := serialSolve(g.cg, cfg, &sc)
				pooled, err := Solve(g.cg, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, a := range []*Assignment{got, pooled} {
					if a.Rounds != want.Rounds || a.Moves != want.Moves || a.Batches != want.Batches {
						t.Fatalf("%s: rounds/moves/batches %d/%d/%d, reference %d/%d/%d",
							name, a.Rounds, a.Moves, a.Batches, want.Rounds, want.Moves, want.Batches)
					}
					for c := range want.Partition {
						if a.Partition[c] != want.Partition[c] {
							t.Fatalf("%s: cluster %d on %d, reference %d", name, c, a.Partition[c], want.Partition[c])
						}
					}
				}
			}
		}
	}
	if sc.fallbacks == 0 {
		t.Fatal("no best response took the near-tie fallback")
	}
}

// TestPlayBatchBestAllocFree: once a worker's scratch is sized, a batch
// game allocates nothing.
func TestPlayBatchBestAllocFree(t *testing.T) {
	cg := testClusterGraph(t, 2000, 32, 12)
	assign := make([]int32, cg.NumClusters)
	cfg := Config{K: 32, Seed: 3}.withDefaults()
	var sc scratch
	playBatch(cg, cfg, 0, cg.NumClusters, assign, &sc)
	allocs := testing.AllocsPerRun(5, func() {
		playBatch(cg, cfg, 0, cg.NumClusters, assign, &sc)
	})
	if allocs != 0 {
		t.Fatalf("%v allocs per warmed batch game, want 0", allocs)
	}
}
