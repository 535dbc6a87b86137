package partition

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/stream"
)

// CLUGP is the paper's contribution: a three-pass restreaming vertex-cut
// partitioner (Figure 1).
//
// Pass 1 clusters vertices with the allocation-splitting-migration streaming
// algorithm (package cluster). Pass 2 maps clusters to partitions at Nash
// equilibrium of an exact potential game (package game). Pass 3 re-streams
// the edges and materializes the edge->partition assignment while enforcing
// the imbalance factor tau (Algorithm 1).
type CLUGP struct {
	// Tau is the imbalance factor: no partition may exceed tau*|E|/k edges
	// (Algorithm 1 line 2). Zero means 1.0, the paper's default.
	Tau float64
	// RelWeight is the relative weight of load balance vs edge cutting in
	// the game (Figure 11b); zero means 0.5 (equal, Equation 11).
	RelWeight float64
	// BatchSize is the cluster-game batch size (default 6400, Section VI).
	BatchSize int
	// Threads is the number of parallel game workers (default GOMAXPROCS;
	// the paper uses 32).
	Threads int
	// MigrateMaxDegree forwards to cluster.Config.MigrateMaxDegree
	// (0 = default cap of 1; -1 = uncapped, the literal Algorithm 2).
	MigrateMaxDegree int
	// DisableSplitting yields the CLUGP-S ablation (Holl clustering).
	DisableSplitting bool
	// GreedyAssign yields the CLUGP-G ablation (size-greedy cluster
	// placement instead of the game).
	GreedyAssign bool
	// Seed drives the game's random initial strategies.
	Seed uint64

	// LastTrace captures diagnostics of the most recent run (nil before).
	LastTrace *Trace
}

// vmaxFactor scales the maximum cluster volume Vmax = vmaxFactor*|E|/k,
// i.e. Vmax = |E|/(5k). The paper follows Hollocou's |E|/k suggestion; our
// calibration (DESIGN.md) found that partitioning quality needs clusters an
// order of magnitude finer than partitions, so that the game has enough
// movable pieces to both balance and heal inter-cluster adjacency - at
// factor 1.0 the transformation's balance guard ends up rerouting a large
// share of edges.
const vmaxFactor = 0.2

// clugpFrozen is what passes 1 and 2 leave for pass 3: the per-vertex
// record, read-only during pass 3, and the pass-1/2 diagnostics. The
// record is three tables indexed by vertex: master[v] is the partition of
// v's final cluster (its master copy; -1 if v never appeared in the
// stream), mirror[v] the partition of the cluster holding v's mirror (-1
// if it has none) and deg[v] its pass-1 degree. Nothing else of the
// clustering or the cluster->partition table is kept.
type clugpFrozen struct {
	master, mirror []int32
	deg            []uint32
	// trace holds the pass-1/2 fields of the run's Trace.
	trace Trace
}

// Trace exposes per-pass diagnostics of a CLUGP run for the ablation and
// parallelization experiments.
type Trace struct {
	NumClusters int
	Splits      int64
	Migrations  int64
	// IntraFraction is the share of edges with both endpoints in the same
	// cluster after pass 1 - the direct measure of clustering quality.
	IntraFraction float64
	// HealedFraction is the share of inter-cluster edges whose two clusters
	// the game co-located, so they cut nothing.
	HealedFraction float64
	GameRounds     int
	GameMoves      int64
	GameBatches    int
	Overflowed     int64 // edges rerouted by the balance guard (Alg. 1 lines 6-14)
	// Per-pass wall times: pass 1 (clustering), the cluster-graph build,
	// pass 2 (the game - the parallelized computation of Figure 10), and
	// pass 3 (transformation). Streaming passes 1 and 3 are I/O-bound in
	// the paper's accounting; the game is the compute-bound part.
	ClusterTime   time.Duration
	BuildTime     time.Duration
	GameTime      time.Duration
	TransformTime time.Duration
	// Per-phase state in bytes, as reported to the sink (DESIGN.md,
	// "Measured state"): pass 1's tables; the compacted tables plus the
	// build's peak; those plus the cluster graph and the game's table (its
	// workers' O(threads*(batch+k)) scratch aside); pass 3's record.
	ClusterBytes   int64
	BuildBytes     int64
	GameBytes      int64
	TransformBytes int64
}

// Name implements Partitioner.
func (c *CLUGP) Name() string {
	switch {
	case c.DisableSplitting && c.GreedyAssign:
		return "CLUGP-SG"
	case c.DisableSplitting:
		return "CLUGP-S"
	case c.GreedyAssign:
		return "CLUGP-G"
	default:
		return "CLUGP"
	}
}

// PreferredOrder implements Partitioner: BFS, the natural web-crawl order
// the paper's streaming-clustering analysis assumes.
func (c *CLUGP) PreferredOrder() stream.Order { return stream.BFS }

// run executes the three passes, delivering pass 3's assignment to the
// sink. Passes 1 and 2 keep only the O(|V|) mapping tables and the cluster
// graph, and pass 3 commits each transformed block as soon as its balance
// bookkeeping is final, so the full run never holds O(|E|) state - the
// paper's streaming deployment: three sequential passes over a replayable
// stream.
func (c *CLUGP) run(src stream.Source, k int, sink *assignSink) error {
	tau := c.Tau
	if tau == 0 {
		tau = 1.0
	}
	if tau < 1.0 {
		return fmt.Errorf("clugp: tau must be >= 1.0, got %v", tau)
	}
	if src.Len() == 0 {
		return nil
	}
	fz, err := c.passes12(src, k, sink)
	if err != nil {
		return err
	}
	// Only the frozen record is live now: the clustering's side tables,
	// the cluster graph and the game's table are garbage, collected here
	// before pass 3 allocates.
	sink.phaseBoundary()

	// Pass 3: transformation (Algorithm 1).
	t3 := time.Now()
	overflowed, held, err := transform(src, fz, k, tau, sink)
	if err != nil {
		return fmt.Errorf("clugp pass 3: %w", err)
	}
	tr := fz.trace
	tr.Overflowed = overflowed
	tr.TransformTime = time.Since(t3)
	tr.TransformBytes = held
	c.LastTrace = &tr
	return nil
}

// passes12 runs pass 1 (streaming clustering) and pass 2 (the cluster
// graph and the partitioning game), reporting each phase's state to sink.
func (c *CLUGP) passes12(src stream.Source, k int, sink *assignSink) (*clugpFrozen, error) {
	numEdges := src.Len()

	// Pass 1: streaming clustering. Vmax = vmaxFactor*|E|/k, at least 2 so
	// that tiny graphs still form multi-vertex clusters.
	vmax := int64(vmaxFactor * float64(numEdges) / float64(k))
	if vmax < 2 {
		vmax = 2
	}
	t0 := time.Now()
	cres, err := cluster.Run(src, cluster.Config{
		Vmax:             vmax,
		DisableSplitting: c.DisableSplitting,
		MigrateMaxDegree: c.MigrateMaxDegree,
	})
	if err != nil {
		return nil, fmt.Errorf("clugp pass 1: %w", err)
	}
	clusterBytes := cres.Bytes()
	sink.hold(clusterBytes)
	cres.Compact()
	t1 := time.Now()

	// Pass 2: build the cluster graph and play the partitioning game.
	cg, err := cluster.BuildGraph(src, cres)
	if err != nil {
		return nil, fmt.Errorf("clugp pass 2: %w", err)
	}
	buildBytes := cres.Bytes() + cg.BuildBytes
	sink.hold(buildBytes)
	t2 := time.Now()
	var asg *game.Assignment
	if c.GreedyAssign {
		asg = game.GreedyAssign(cg, k)
	} else {
		batch := c.BatchSize
		if batch == 0 {
			batch = 6400
		}
		asg, err = game.Solve(cg, game.Config{
			K:         k,
			RelWeight: c.RelWeight,
			BatchSize: batch,
			Threads:   c.Threads,
			Seed:      c.Seed,
		})
		if err != nil {
			return nil, fmt.Errorf("clugp pass 2: %w", err)
		}
	}
	t3 := time.Now()
	gameBytes := cres.Bytes() + cg.Bytes() + 4*int64(cap(asg.Partition))
	sink.hold(gameBytes)

	// Cluster-quality fractions come from pass-2 state alone, so they are
	// computed before pass 3 folds the tables and the cluster graph becomes
	// garbage.
	var intraFrac, healedFrac float64
	if total := cg.TotalIntra + cg.TotalInter; total > 0 {
		intraFrac = float64(cg.TotalIntra) / float64(total)
	}
	if cg.TotalInter > 0 {
		var healed int64
		for ci := 0; ci < cg.NumClusters; ci++ {
			p := asg.Partition[ci]
			for _, a := range cg.Adj[ci] {
				if asg.Partition[a.To] == p {
					healed += int64(a.W)
				}
			}
		}
		// Each co-located pair's weight got counted from both sides, and
		// arc weights already combine both edge directions.
		healedFrac = float64(healed) / float64(2*cg.TotalInter)
	}
	// Fold the cluster->partition table into the vertex->cluster and
	// split-from tables in place: they become the master and mirror
	// tables, so pass 3 allocates nothing, and the rest of the clustering
	// and the game's table are garbage from here on.
	cpart := asg.Partition
	for _, tab := range [][]cluster.ID{cres.Assign, cres.SplitFrom} {
		for v, c := range tab {
			if c != cluster.None {
				tab[v] = cpart[c]
			}
		}
	}
	return &clugpFrozen{
		master: cres.Assign,
		mirror: cres.SplitFrom,
		deg:    cres.Degree,
		trace: Trace{
			NumClusters:    cres.NumClusters,
			Splits:         cres.Splits,
			Migrations:     cres.Migrations,
			IntraFraction:  intraFrac,
			HealedFraction: healedFrac,
			GameRounds:     asg.Rounds,
			GameMoves:      asg.Moves,
			GameBatches:    asg.Batches,
			ClusterTime:    t1.Sub(t0),
			BuildTime:      t2.Sub(t1),
			GameTime:       t3.Sub(t2),
			ClusterBytes:   clusterBytes,
			BuildBytes:     buildBytes,
			GameBytes:      gameBytes,
		},
	}, nil
}

// transform implements Algorithm 1: stream the edges once more, mapping
// each endpoint to its partition through the master table (the
// vertex->cluster->partition map, folded), with the balance guard and the
// replica-reducing rules, committing each block to the sink as soon as its
// load bookkeeping is final.
//
// The key refinement over a literal line-by-line transcription concerns
// divided vertices (lines 18-19). A vertex split in pass 1 is present in
// two partitions: that of its final cluster and that of the cluster holding
// its mirror ("e will be assigned to the partitions where u's mirror vertex
// belongs", Section III-C). The edge is therefore routed to whichever
// candidate partition creates the fewest new replicas, judging presence by
// exactly the two partitions a vertex's record holds - master and mirror -
// so pass 3 keeps its O(1)-per-edge budget. Ties go to the lighter
// partition, then to the paper's cut-the-higher-degree rule (lines 21-22;
// see cutRoute). An edge inside one partition reads only its endpoints'
// master partitions, one random load each.
//
// An endpoint with no master partition, which passes 1 and 2 never leave
// for a vertex of the stream, fails the pass with an error naming the
// edge. It returns the number of edges the balance guard rerouted and the
// bytes of state the pass held, which it reports to the sink.
func transform(src stream.Source, fz *clugpFrozen, k int, tau float64, sink *assignSink) (overflowed, held int64, err error) {
	// Lmax = ceil(tau*|E|/k): the ceiling guarantees k*Lmax >= |E| so an
	// underflow partition always exists when the guard trips.
	lmax := int64((tau*float64(src.Len()) + float64(k) - 1) / float64(k))
	if lmax < 1 {
		lmax = 1
	}

	master := fz.master
	sizes := make([]int64, k)
	var least leastCursor
	err = forEachBlock(src, func(blk []graph.Edge) error {
		out := sink.grab(len(blk))
		for j, e := range blk {
			pu, pv := master[e.Src], master[e.Dst]
			if pu|pv < 0 {
				w := e.Src
				if pu >= 0 {
					w = e.Dst
				}
				return fmt.Errorf("edge %d (%d -> %d): vertex %d has no master partition", sink.pos+j, e.Src, e.Dst, w)
			}

			var p int32
			if sizes[pu] >= lmax || sizes[pv] >= lmax {
				// Balance guard (lines 6-14): reroute to an underflow
				// partition, preferring the endpoints' own partitions.
				overflowed++
				switch {
				case sizes[pu] < lmax:
					p = pu
				case sizes[pv] < lmax:
					p = pv
				default:
					p = least.next(sizes)
				}
			} else if pu == pv {
				// Same partition: no cut (lines 15-16).
				p = pu
			} else {
				p = fz.cutRoute(e.Src, e.Dst, pu, pv, sizes, lmax)
			}
			out[j] = p
			sizes[p]++
		}
		return sink.commit(blk, out)
	})
	held = 4*int64(cap(master)+cap(fz.mirror)+cap(fz.deg)) + 8*int64(cap(sizes))
	sink.hold(held)
	return overflowed, held, err
}

// cutRoute places an edge (u, v) whose endpoints' master partitions pu
// and pv differ, both under Lmax (Algorithm 1 lines 17-22). The candidates
// are pu, pv and each endpoint's mirror partition. The one creating the
// fewest new replicas wins, judging presence by master and mirror
// partitions alone; then the lighter one. A tie between pu and pv that
// remains cuts the higher-degree endpoint (lines 21-22): the edge goes to
// the lower-degree endpoint's partition, or to v's if the degrees are
// equal. Only that tie reads the degrees.
func (fz *clugpFrozen) cutRoute(u, v graph.VertexID, pu, pv int32, sizes []int64, lmax int64) int32 {
	mu, mv := fz.mirror[u], fz.mirror[v]
	// missing counts the endpoints with no copy at c yet.
	missing := func(c int32) int32 {
		n := int32(0)
		if c != pu && c != mu {
			n++
		}
		if c != pv && c != mv {
			n++
		}
		return n
	}
	p, best := pu, missing(pu)
	if n := missing(pv); n < best || n == best && (sizes[pv] < sizes[pu] || sizes[pv] == sizes[pu] && fz.deg[v] <= fz.deg[u]) {
		p, best = pv, n
	}
	for _, c := range [2]int32{mu, mv} {
		if c < 0 || sizes[c] >= lmax {
			continue
		}
		if n := missing(c); n < best || n == best && sizes[c] < sizes[p] {
			p, best = c, n
		}
	}
	return p
}

// leastCursor answers the balance guard's "lowest-numbered least-loaded
// partition" (leastLoadedAll's answer) in amortized O(1) over sizes that
// only grow. Invariant: no size is below min, and every partition before
// at is above it. Its zero value starts a run whose sizes are all zero.
type leastCursor struct {
	min int64
	at  int
}

// next sweeps forward to the first partition still at min. When every
// partition has grown past min, one scan finds the new minimum and its
// first holder; each such scan raises min, so over a run the scans cost
// O(k * Lmax) = O(tau * |E|) in all.
func (c *leastCursor) next(sizes []int64) int32 {
	for ; c.at < len(sizes); c.at++ {
		if sizes[c.at] == c.min {
			return int32(c.at)
		}
	}
	p := leastLoadedAll(sizes)
	c.min, c.at = sizes[p], int(p)
	return p
}
