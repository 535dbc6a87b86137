package engine

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/partition"
)

// refPageRank is the single-goroutine PageRank that PageRank replaced, kept
// as its oracle: every phase runs serially in node order, and the dangling
// mass is one running total over masters in node/vertex order.
func refPageRank(pl *Placement, cfg PageRankConfig) ([]float64, RunStats, error) {
	if cfg.Damping == 0 {
		cfg.Damping = 0.85
	}
	if cfg.Damping < 0 || cfg.Damping >= 1 {
		return nil, RunStats{}, fmt.Errorf("engine: damping %v out of [0,1)", cfg.Damping)
	}
	if cfg.Iterations == 0 {
		cfg.Iterations = 10
	}
	cm := cfg.Cost.withDefaults()
	n := pl.NumVertices
	if n == 0 {
		return nil, RunStats{}, nil
	}
	nf := float64(n)
	d := cfg.Damping

	// Global out-degrees, needed by the gather; masters distribute them to
	// mirrors once at load time (not counted in per-superstep traffic,
	// matching how PowerGraph ships static vertex data during ingress).
	outdeg := make([]int64, n)
	for i := range pl.Nodes {
		node := &pl.Nodes[i]
		for _, e := range node.Edges {
			outdeg[node.Global[e.Src]]++
		}
	}

	// Per-node state: local rank and accumulator arrays.
	rank := make([][]float64, pl.K)
	acc := make([][]float64, pl.K)
	for i := range pl.Nodes {
		ln := len(pl.Nodes[i].Global)
		rank[i] = make([]float64, ln)
		acc[i] = make([]float64, ln)
		for l := range rank[i] {
			rank[i][l] = 1 / nf
		}
	}

	var stats RunStats
	stats.MaxLocalEdges = pl.MaxLocalEdges()

	for it := 0; it < cfg.Iterations; it++ {
		var messages int64

		// Gather: local partial sums.
		for i := range pl.Nodes {
			node := &pl.Nodes[i]
			a := acc[i]
			r := rank[i]
			for l := range a {
				a[l] = 0
			}
			for _, e := range node.Edges {
				od := outdeg[node.Global[e.Src]]
				a[e.Dst] += r[e.Src] / float64(od)
			}
		}

		// Mirror -> master accumulator combine.
		for _, sp := range pl.Sync {
			acc[sp.MasterNode][sp.MasterLocal] += acc[sp.MirrorNode][sp.MirrorLocal]
		}
		messages += int64(len(pl.Sync))

		// Dangling mass: global reduction over masters (one message per
		// node for the aggregate).
		var dangling float64
		for i := range pl.Nodes {
			node := &pl.Nodes[i]
			r := rank[i]
			for l := range node.Global {
				if node.IsMaster[l] && outdeg[node.Global[l]] == 0 {
					dangling += r[l]
				}
			}
		}
		messages += int64(pl.K)

		// Apply at masters.
		base := (1 - d) / nf
		spread := d * dangling / nf
		for i := range pl.Nodes {
			node := &pl.Nodes[i]
			for l := range node.Global {
				if node.IsMaster[l] {
					rank[i][l] = base + d*acc[i][l] + spread
				}
			}
		}

		// Master -> mirror rank sync.
		for _, sp := range pl.Sync {
			rank[sp.MirrorNode][sp.MirrorLocal] = rank[sp.MasterNode][sp.MasterLocal]
		}
		messages += int64(len(pl.Sync))

		stats.accountSuperstep(cm, stats.MaxLocalEdges, messages)
	}

	// Collect master ranks into the global result.
	out := make([]float64, n)
	for i := range pl.Nodes {
		node := &pl.Nodes[i]
		for l, v := range node.Global {
			if node.IsMaster[l] {
				out[v] = rank[i][l]
			}
		}
	}
	// Guard: ranks must form a distribution (up to float error).
	var sum float64
	for _, r := range out {
		sum += r
	}
	if math.Abs(sum-1) > 1e-6 {
		return out, stats, fmt.Errorf("engine: pagerank mass %v != 1", sum)
	}
	return out, stats, nil
}

// TestPageRankMatchesRefPageRank: ranks and every RunStats field equal the
// serial oracle's bit for bit, inline (GOMAXPROCS 1) and with the per-node
// phases on a goroutine pool (GOMAXPROCS 2). The RMAT graph has thousands
// of dangling vertices spread over every node, so a dangling reduction in
// any other order than the oracle's changes the ranks.
func TestPageRankMatchesRefPageRank(t *testing.T) {
	for _, tc := range []struct {
		name string
		pl   *Placement
	}{
		{"web/k=8", place(t, testGraph(11), &partition.CLUGP{Seed: 1}, 8)},
		{"rmat/k=8", place(t, gen.RMAT(14, 8, .57, .19, .19, 3), &partition.CLUGP{Seed: 1}, 8)},
		{"rmat/k=32", place(t, gen.RMAT(14, 8, .57, .19, .19, 3), &partition.HDRF{}, 32)},
	} {
		cfg := PageRankConfig{Iterations: 8}
		want, wantStats, err := refPageRank(tc.pl, cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, procs := range []int{1, 2} {
			name := fmt.Sprintf("%s/procs=%d", tc.name, procs)
			prev := runtime.GOMAXPROCS(procs)
			got, stats, err := PageRank(tc.pl, cfg)
			runtime.GOMAXPROCS(prev)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if stats != wantStats {
				t.Fatalf("%s: stats %+v, oracle %+v", name, stats, wantStats)
			}
			for v := range want {
				if math.Float64bits(got[v]) != math.Float64bits(want[v]) {
					t.Fatalf("%s: rank[%d] = %v, oracle %v", name, v, got[v], want[v])
				}
			}
		}
	}
}
