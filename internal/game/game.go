// Package game implements the paper's second pass: assigning clusters to the
// k partitions by playing an exact potential game until Nash equilibrium
// (Section V, Algorithm 3).
//
// Each cluster is a player whose strategy is its partition choice. The
// individual cost (Equation 11) combines a load-balancing term
// (lambda/k)*|ci|*|ai| with an edge-cutting term, half the weight of ci's
// arcs leaving its partition. Theorem 4 shows the game admits the exact
// potential function of Definition 4, so sequential best-response dynamics
// terminate at a pure Nash equilibrium; Theorems 7 and 8 bound the price of
// anarchy by k+1 and the price of stability by 2.
//
// For scale, clusters are grouped by id into batches that play independent
// games in parallel (Section V-D): cluster ids are assigned in stream order,
// so id-adjacent clusters are structurally adjacent and most arcs stay
// within a batch. Each batch balances its own clusters across all k
// partitions; because every batch is individually balanced, their union is
// too.
package game

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/xrand"
)

// Config controls the cluster-partitioning game.
type Config struct {
	// K is the number of partitions.
	K int
	// Lambda is the normalization factor of Equation 10/11. Zero selects
	// the paper's default: the maximum of the valid range from Theorem 5,
	// k^2 * sum_i |e(ci,V\ci)| / (sum_i |ci|)^2, computed per batch.
	Lambda float64
	// RelWeight is the relative weight of the load-balancing term versus
	// the edge-cutting term (Figure 11b). 0.5 (the default when zero)
	// weighs them equally, reproducing Equation 11 exactly; w scales the
	// load term by 2w and the cut term by 2(1-w).
	RelWeight float64
	// BatchSize is the number of clusters per independent game. Zero plays
	// one global game. The paper recommends a constant multiple of K and
	// defaults to 6400.
	BatchSize int
	// Threads is the number of parallel batch workers (0 = GOMAXPROCS).
	Threads int
	// MaxRounds caps best-response rounds per batch as a safety valve; the
	// potential argument guarantees termination, and equilibria are
	// typically reached in well under 50 rounds. Zero means 1000; negative
	// values are rejected.
	MaxRounds int
	// Seed drives the random initial assignment (Algorithm 3 line 2).
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.RelWeight == 0 {
		c.RelWeight = 0.5
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 1000
	}
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	return c
}

// Assignment is the outcome of the game: the cluster -> partition table
// (the second mapping table of Figure 1) plus convergence diagnostics.
type Assignment struct {
	// Partition[c] is the partition chosen for cluster c.
	Partition []int32
	// Rounds is the maximum over batches of the best-response rounds the
	// batch played.
	Rounds int
	// Moves is the total number of strategy changes across all batches.
	Moves int64
	// Batches is the number of independent games played.
	Batches int
}

// Solve plays the cluster-partitioning game and returns a Nash-equilibrium
// assignment (per batch).
func Solve(cg *cluster.Graph, cfg Config) (*Assignment, error) {
	cfg = cfg.withDefaults()
	if cfg.K < 1 {
		return nil, fmt.Errorf("game: K must be >= 1, got %d", cfg.K)
	}
	if cfg.MaxRounds < 0 {
		return nil, fmt.Errorf("game: MaxRounds must be >= 0, got %d", cfg.MaxRounds)
	}
	if cfg.RelWeight <= 0 || cfg.RelWeight >= 1 {
		return nil, fmt.Errorf("game: RelWeight must lie in (0,1), got %v", cfg.RelWeight)
	}
	m := cg.NumClusters
	out := &Assignment{Partition: make([]int32, m)}
	if m == 0 {
		return out, nil
	}
	batch := cfg.BatchSize
	if batch <= 0 || batch > m {
		batch = m
	}
	nBatches := (m + batch - 1) / batch
	out.Batches = nBatches

	type batchStats struct {
		rounds int
		moves  int64
	}
	stats := make([]batchStats, nBatches)

	// Bounded worker pool: cfg.Threads workers claim batch indices from an
	// atomic counter, each owning one scratch set reused across every batch
	// it plays. The former goroutine-per-batch launch spawned thousands of
	// goroutines at production batch counts and allocated fresh
	// load/size/weight arrays per batch; batches are independent, so which
	// worker plays a batch cannot affect the equilibrium.
	workers := cfg.Threads
	if workers > nBatches {
		workers = nBatches
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var sc scratch
			for {
				b := int(next.Add(1)) - 1
				if b >= nBatches {
					return
				}
				lo := b * batch
				hi := lo + batch
				if hi > m {
					hi = m
				}
				rounds, moves := playBatch(cg, cfg, lo, hi, out.Partition[lo:hi], &sc)
				stats[b] = batchStats{rounds: rounds, moves: moves}
			}
		}()
	}
	wg.Wait()
	for _, s := range stats {
		if s.rounds > out.Rounds {
			out.Rounds = s.rounds
		}
		out.Moves += s.moves
	}
	return out, nil
}

// scratch is one worker's reusable batch-game state. Buffers are sized to
// the largest batch the worker has seen and reused for every later batch,
// so the steady-state game plays allocation-free.
type scratch struct {
	size    []int64   // cluster weights
	load    []int64   // per-partition load
	wTo     []float64 // arc weight toward each partition
	touched []int32   // partitions with non-zero wTo
	order   []int32   // partitions sorted by (load, index)
	pos     []int32   // pos[p] is p's index in order
	// fallbacks counts best responses that a near-tie sent to the full scan.
	fallbacks int64
}

func (sc *scratch) reset(n, k int) {
	if cap(sc.size) < n {
		sc.size = make([]int64, n)
	}
	sc.size = sc.size[:n]
	if cap(sc.load) < k {
		sc.load = make([]int64, k)
		sc.wTo = make([]float64, k)
		// One backing array for the three k-sized index lists; touched is
		// capped at k so an append can never run into order.
		buf := make([]int32, 3*k)
		sc.touched = buf[:0:k]
		sc.order = buf[k : 2*k : 2*k]
		sc.pos = buf[2*k:]
	}
	sc.load = sc.load[:k]
	sc.wTo = sc.wTo[:k]
	for i := range sc.wTo {
		sc.wTo[i] = 0
	}
	sc.touched = sc.touched[:0]
	sc.order = sc.order[:k]
	sc.pos = sc.pos[:k]
}

// playBatch runs sequential best-response dynamics over clusters [lo,hi),
// writing final choices into out (batch-local: out[c-lo] is cluster c's
// partition). It only reads cg and its own range, so batches are data-race
// free; all other buffers come from the worker's scratch, which it sizes
// first.
//
// A best response picks the strategy an ascending scan over all k
// partitions picks: the lowest-index partition at the minimum cost, with a
// move taken only if it saves more than 1e-9. It evaluates only the
// current partition, the partitions that in-batch neighbours occupy, and a
// prefix of the partitions in (load, index) order, so a step costs the
// cluster's in-batch arcs plus that prefix rather than k. When a cost falls
// within a hair of the minimum the shortcut cannot certify the scan's pick
// and the step falls back to the scan itself.
func playBatch(cg *cluster.Graph, cfg Config, lo, hi int, out []int32, sc *scratch) (rounds int, moves int64) {
	k := cfg.K
	sc.reset(hi-lo, k)
	rng := xrand.New(cfg.Seed ^ (0x9e3779b97f4a7c15 * uint64(lo+1)))

	// Cluster sizes for load balancing: the weight 2*intra+adjacency, which
	// predicts the partition's eventual edge load after transformation
	// (every intra edge lands with its cluster; a cut edge lands with one of
	// its two sides).
	size := sc.size[:hi-lo]
	for c := lo; c < hi; c++ {
		size[c-lo] = cg.WeightOf(cluster.ID(c))
	}

	// Random initial strategies (Algorithm 3 line 2).
	load := sc.load[:k]
	for i := range load {
		load[i] = 0
	}
	for c := lo; c < hi; c++ {
		p := int32(rng.Intn(k))
		out[c-lo] = p
		load[p] += size[c-lo]
	}

	// Partitions in (load, index) order; pos locates each one in order.
	order, pos := sc.order[:k], sc.pos[:k]
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(load[a], load[b]) })
	for i, p := range order {
		pos[p] = int32(i)
	}

	// Batch-local lambda default (Theorem 5 upper bound, on the weight
	// scale): k^2 * (directed inter edges) / (sum of weights)^2.
	lambda := cfg.Lambda
	if lambda == 0 {
		var sumW, sumInterDirected int64
		for c := lo; c < hi; c++ {
			sumW += size[c-lo]
			// TotalAdjacency counts both directions; summing it over
			// clusters counts each directed cut edge twice, so the directed
			// total sum_i |e(ci,V\ci)| is half of it. Arcs leaving the
			// batch contribute too, keeping lambda on the paper's scale.
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

	// Scratch: weight from the current cluster to each partition. wTo is
	// kept all-zero between uses (the touched list undoes every write), so
	// reuse across batches is free. A partition is occupied
	// by an in-batch neighbour exactly when its wTo is non-zero.
	wTo := sc.wTo[:k]
	touched := sc.touched[:0]

	for rounds = 1; ; rounds++ {
		changed := false
		for c := lo; c < hi; c++ {
			ci := cluster.ID(c)
			s := size[c-lo]
			cur := out[c-lo]

			// Accumulate arc weight toward each partition currently chosen
			// by in-batch neighbours. Out-of-batch arcs are a constant cost
			// regardless of choice, so they drop out of the argmin.
			var totalW float64
			for _, a := range cg.Adj[ci] {
				if int(a.To) < lo || int(a.To) >= hi {
					continue
				}
				p := out[int(a.To)-lo]
				if wTo[p] == 0 {
					touched = append(touched, p)
				}
				wTo[p] += float64(a.W)
				totalW += float64(a.W)
			}

			// With the cluster taken out of cur, every strategy p, cur
			// included, costs cost(p) (Equation 11 scaled by RelWeight).
			// An unoccupied partition has wTo[p] == 0, so its cost never
			// decreases as load[p] grows: in load order, the first
			// unoccupied partition other than cur is the cheapest one.
			wl := wLoad * float64(s)
			cost := func(p int32) float64 { return wl*float64(load[p]+s) + wCut*(totalW-wTo[p]) }
			load[cur] -= s
			cc := cost(cur)
			m := cc
			for _, p := range touched {
				m = min(m, cost(p))
			}
			head := 0
			for ; head < k; head++ {
				if p := order[head]; p != cur && wTo[p] == 0 {
					m = min(m, cost(p))
					break
				}
			}

			// If every candidate costs exactly m or more than m+margin,
			// the ascending scan with its 1e-9 hysteresis stays on cur when
			// cur costs m and otherwise ends on the lowest-index partition
			// at m. The margin covers the hysteresis plus the rounding of
			// bestCost-1e-9; the walk stops at the first unoccupied
			// partition above it, as all later ones cost at least as much.
			band := m + 1e-8 + 1e-12*m
			low, near := int32(k), false
			if cc != m && cc <= band {
				near = true
			}
			for _, p := range touched {
				if p == cur {
					continue
				}
				if pc := cost(p); pc == m {
					low = min(low, p)
				} else if pc <= band {
					near = true
				}
			}
			for _, p := range order[head:] {
				if p == cur || wTo[p] != 0 {
					continue
				}
				pc := cost(p)
				if pc > band {
					break
				}
				if pc == m {
					low = min(low, p)
				} else {
					near = true
				}
			}

			best := cur
			switch {
			case near:
				sc.fallbacks++
				bestCost := cc
				for p := int32(0); p < int32(k); p++ {
					if p == cur {
						continue
					}
					if pc := cost(p); pc < bestCost-1e-9 {
						bestCost = pc
						best = p
					}
				}
			case cc != m:
				best = low
			}
			if best != cur {
				reorder(order, pos, load, cur)
				load[best] += s
				reorder(order, pos, load, best)
				out[c-lo] = best
				moves++
				changed = true
			} else {
				load[cur] += s
			}

			for _, p := range touched {
				wTo[p] = 0
			}
			touched = touched[:0]
		}
		if !changed || rounds == cfg.MaxRounds {
			return rounds, moves
		}
	}
}

// reorder moves partition p to its place in order after load[p] changed,
// keeping order sorted by (load, index) and pos in step with it.
func reorder(order, pos []int32, load []int64, p int32) {
	before := func(a, b int32) bool { return load[a] < load[b] || load[a] == load[b] && a < b }
	i := pos[p]
	for ; i > 0 && before(p, order[i-1]); i-- {
		order[i] = order[i-1]
		pos[order[i]] = i
	}
	for ; int(i)+1 < len(order) && before(order[i+1], p); i++ {
		order[i] = order[i+1]
		pos[order[i]] = i
	}
	order[i] = p
	pos[p] = i
}

// GreedyAssign is the CLUGP-G ablation (Figure 9): sort clusters by
// descending size and place each into the currently least-loaded partition
// (longest-processing-time scheduling). It balances load but ignores
// edge-cutting entirely.
func GreedyAssign(cg *cluster.Graph, k int) *Assignment {
	m := cg.NumClusters
	out := &Assignment{Partition: make([]int32, m), Batches: 1}
	size := make([]int64, m)
	for c := range size {
		size[c] = cg.WeightOf(cluster.ID(c))
	}
	order := make([]int32, m)
	for i := range order {
		order[i] = int32(i)
	}
	sortBySizeDesc(order, size)
	load := make([]int64, k)
	for _, c := range order {
		best := 0
		for p := 1; p < k; p++ {
			if load[p] < load[best] {
				best = p
			}
		}
		out.Partition[c] = int32(best)
		load[best] += size[c]
	}
	return out
}

// sortBySizeDesc orders cluster ids by descending size. The sort is
// stable, so ties keep their id order and the assignment is deterministic.
func sortBySizeDesc(order []int32, size []int64) {
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(size[b], size[a]) })
}
