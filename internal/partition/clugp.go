package partition

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/store"
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
	// VmaxFactor scales the maximum cluster volume Vmax = factor*|E|/k.
	// Zero means 0.2, i.e. Vmax = |E|/(5k). The paper follows Hollocou's
	// |E|/k suggestion; our calibration (DESIGN.md) found that partitioning
	// quality needs clusters an order of magnitude finer than partitions,
	// so that the game has enough movable pieces to both balance and heal
	// inter-cluster adjacency - at factor 1.0 the transformation's balance
	// guard ends up rerouting a large share of edges.
	VmaxFactor float64
	// RelWeight is the relative weight of load balance vs edge cutting in
	// the game (Figure 11b); zero means 0.5 (equal, Equation 11).
	RelWeight float64
	// Lambda overrides the game normalization factor; zero selects the
	// Theorem 5 maximum, the paper's default.
	Lambda float64
	// BatchSize is the cluster-game batch size (default 6400, Section VI).
	BatchSize int
	// GameRestarts plays each batch game from that many random starts,
	// keeping the lowest-potential equilibrium (closing the PoA/PoS gap of
	// Theorems 7-8). Zero means 1.
	GameRestarts int
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

	// live points at the running pass 3's state while it streams, so
	// SnapshotState can capture it at a commit boundary; resume holds
	// checkpoint state stashed by RestoreState until the next run.
	live   *clugpLive
	resume *clugpResume
}

// clugpScalars is the scalar diagnostics a checkpoint carries so a resumed
// run rebuilds LastTrace without re-running passes 1 and 2.
type clugpScalars struct {
	numClusters int
	splits      int64
	migrations  int64
	gameRounds  int
	gameMoves   int64
	gameBatches int
	intraFrac   float64
	healedFrac  float64
	clusterNs   int64
	buildNs     int64
	gameNs      int64
	transformNs int64 // pass-3 time accumulated before this run
}

// clugpLive is the state of the pass 3 currently streaming: the mapping
// tables are read-only during the pass, sizes and overflowed are current at
// every commit boundary (the score loop flushes before committing).
type clugpLive struct {
	cres       *cluster.Result
	cpart      []int32
	sizes      []int64
	overflowed *int64
	scalars    clugpScalars
	t3         time.Time // pass-3 start, for accumulated transform time
}

// clugpResume is the decoded checkpoint state of an interrupted run:
// everything pass 3 needs, reconstructed without touching passes 1-2.
type clugpResume struct {
	numEdges   int64
	cres       *cluster.Result
	cpart      []int32
	sizes      []int64
	overflowed int64
	scalars    clugpScalars
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

// Partition implements Partitioner, running the three passes.
func (c *CLUGP) Partition(src stream.Source, k int) ([]int32, error) {
	return partitionVia(c, src, k)
}

// PartitionInto implements IntoPartitioner. The sink is constructed in a
// concrete call chain so it stays on the stack (zero-allocation contract).
func (c *CLUGP) PartitionInto(src stream.Source, k int, assign []int32) error {
	if err := checkInto(src, k, assign); err != nil {
		return err
	}
	sink := assignSink{assign: assign}
	return c.run(src, k, &sink)
}

// PartitionStream implements StreamingPartitioner: passes 1 and 2 keep only
// the O(|V|) mapping tables and the cluster graph, and pass 3 commits each
// transformed block as soon as its balance bookkeeping is final, so the
// full run never holds O(|E|) state. This is the paper's actual streaming
// deployment: three sequential passes over a replayable stream.
func (c *CLUGP) PartitionStream(src stream.Source, k int, emit Emit) error {
	return streamVia(c, src, k, emit)
}

// run executes the three passes, delivering pass 3's assignment to the sink.
func (c *CLUGP) run(src stream.Source, k int, sink *assignSink) error {
	if c.resume != nil {
		return c.runResume(src, k, sink)
	}
	tau := c.Tau
	if tau == 0 {
		tau = 1.0
	}
	if tau < 1.0 {
		return fmt.Errorf("clugp: tau must be >= 1.0, got %v", tau)
	}
	vf := c.VmaxFactor
	if vf == 0 {
		vf = 0.2
	}
	numEdges := src.Len()
	if numEdges == 0 {
		return nil
	}

	// Pass 1: streaming clustering. Vmax = vf*|E|/k, at least 2 so that
	// tiny graphs still form multi-vertex clusters.
	vmax := int64(vf * float64(numEdges) / float64(k))
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
		return fmt.Errorf("clugp pass 1: %w", err)
	}
	cres.Compact()
	t1 := time.Now()

	// Pass 2: build the cluster graph and play the partitioning game.
	cg, err := cluster.BuildGraph(src, cres)
	if err != nil {
		return fmt.Errorf("clugp pass 2: %w", err)
	}
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
			Lambda:    c.Lambda,
			RelWeight: c.RelWeight,
			BatchSize: batch,
			Threads:   c.Threads,
			Restarts:  c.GameRestarts,
			Seed:      c.Seed,
		})
		if err != nil {
			return fmt.Errorf("clugp pass 2: %w", err)
		}
	}
	t3 := time.Now()

	// Cluster-quality fractions come from pass-2 state alone, so they are
	// computed before pass 3: a checkpoint taken mid-transformation carries
	// them, and a resumed run never revisits the cluster graph.
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
					healed += a.W
				}
			}
		}
		// Each co-located pair's weight got counted from both sides, and
		// arc weights already combine both edge directions.
		healedFrac = float64(healed) / float64(2*cg.TotalInter)
	}

	// Pass 3: transformation (Algorithm 1).
	sizes := make([]int64, k)
	var overflowed int64
	c.live = &clugpLive{
		cres:       cres,
		cpart:      asg.Partition,
		sizes:      sizes,
		overflowed: &overflowed,
		scalars: clugpScalars{
			numClusters: cres.NumClusters,
			splits:      cres.Splits,
			migrations:  cres.Migrations,
			gameRounds:  asg.Rounds,
			gameMoves:   asg.Moves,
			gameBatches: asg.Batches,
			intraFrac:   intraFrac,
			healedFrac:  healedFrac,
			clusterNs:   int64(t1.Sub(t0)),
			buildNs:     int64(t2.Sub(t1)),
			gameNs:      int64(t3.Sub(t2)),
		},
		t3: t3,
	}
	if err = transform(src, numEdges, cres, asg.Partition, k, tau, sizes, &overflowed, sink); err != nil {
		return fmt.Errorf("clugp pass 3: %w", err)
	}
	t4 := time.Now()

	c.LastTrace = &Trace{
		NumClusters:    cres.NumClusters,
		Splits:         cres.Splits,
		Migrations:     cres.Migrations,
		IntraFraction:  intraFrac,
		HealedFraction: healedFrac,
		GameRounds:     asg.Rounds,
		GameMoves:      asg.Moves,
		GameBatches:    asg.Batches,
		Overflowed:     overflowed,
		ClusterTime:    t1.Sub(t0),
		BuildTime:      t2.Sub(t1),
		GameTime:       t3.Sub(t2),
		TransformTime:  t4.Sub(t3),
	}
	return nil
}

// runResume is run with passes 1 and 2 replaced by the checkpoint's mapping
// tables: only pass 3 streams, over the tail the runner fast-forwarded to.
func (c *CLUGP) runResume(src stream.Source, k int, sink *assignSink) error {
	r := c.resume
	c.resume = nil
	tau := c.Tau
	if tau == 0 {
		tau = 1.0
	}
	if tau < 1.0 {
		return fmt.Errorf("clugp: tau must be >= 1.0, got %v", tau)
	}
	overflowed := r.overflowed
	t3 := time.Now()
	c.live = &clugpLive{
		cres:       r.cres,
		cpart:      r.cpart,
		sizes:      r.sizes,
		overflowed: &overflowed,
		scalars:    r.scalars,
		t3:         t3,
	}
	if err := transform(src, int(r.numEdges), r.cres, r.cpart, k, tau, r.sizes, &overflowed, sink); err != nil {
		return fmt.Errorf("clugp pass 3: %w", err)
	}
	s := r.scalars
	c.LastTrace = &Trace{
		NumClusters:    s.numClusters,
		Splits:         s.splits,
		Migrations:     s.migrations,
		IntraFraction:  s.intraFrac,
		HealedFraction: s.healedFrac,
		GameRounds:     s.gameRounds,
		GameMoves:      s.gameMoves,
		GameBatches:    s.gameBatches,
		Overflowed:     overflowed,
		ClusterTime:    time.Duration(s.clusterNs),
		BuildTime:      time.Duration(s.buildNs),
		GameTime:       time.Duration(s.gameNs),
		TransformTime:  time.Duration(s.transformNs) + time.Since(t3),
	}
	return nil
}

// transform implements Algorithm 1: stream the edges once more, mapping
// each through vertex->cluster->partition, with the balance guard and the
// replica-reducing rules, committing each block to the sink as soon as its
// load bookkeeping is final.
//
// The key refinement over a literal line-by-line transcription concerns
// divided vertices (lines 18-19). A vertex split in pass 1 is present in
// two partitions: that of its final cluster and that of the cluster holding
// its mirror ("e will be assigned to the partitions where u's mirror vertex
// belongs", Section III-C). The edge is therefore routed to whichever
// candidate partition creates the fewest new replicas, judging presence by
// exactly those O(1) tables - master partition and mirror partition - so
// pass 3 keeps its O(1)-per-edge budget. Ties fall back to the paper's
// cut-the-higher-degree rule (lines 21-22), then to the lighter partition.
func transform(src stream.Source, numEdges int, cres *cluster.Result, cpart []int32, k int, tau float64, sizes []int64, overflowed *int64, sink *assignSink) (err error) {
	// numEdges is the full stream's edge count, passed in because src may be
	// a resumed tail covering only the remainder; Lmax must not shrink when
	// a run resumes. Lmax = ceil(tau*|E|/k): the ceiling guarantees
	// k*Lmax >= |E| so an underflow partition always exists when the guard
	// trips. sizes and *overflowed carry the balance bookkeeping across a
	// checkpoint: zero on a fresh run, the checkpointed values on resume,
	// and *overflowed is current at every commit so SnapshotState reads a
	// consistent value.
	ovf := *overflowed
	lmax := int64((tau*float64(numEdges) + float64(k) - 1) / float64(k))
	if lmax < 1 {
		lmax = 1
	}

	deg := cres.Degree
	// mirror partition of a vertex, or -1.
	mirrorPart := func(v graph.VertexID) int32 {
		if c := cres.SplitFrom[v]; c != cluster.None {
			return cpart[c]
		}
		return -1
	}

	return forEachBlock(src, func(blk []graph.Edge) error {
		out := sink.grab(len(blk))
		for j, e := range blk {
			u, v := e.Src, e.Dst
			pu := cpart[cres.Assign[u]]
			pv := cpart[cres.Assign[v]]

			var p int32
			if sizes[pu] >= lmax || sizes[pv] >= lmax {
				// Balance guard (lines 6-14): reroute to an underflow
				// partition, preferring the endpoints' own partitions.
				ovf++
				switch {
				case sizes[pu] < lmax:
					p = pu
				case sizes[pv] < lmax:
					p = pv
				default:
					p = leastLoadedAll(sizes)
				}
			} else if pu == pv {
				// Same partition: no cut (lines 15-16).
				p = pu
			} else {
				mu, mv := mirrorPart(u), mirrorPart(v)
				// presentU(p): u exists at p already (master or mirror copy).
				presentU := func(p int32) bool { return p == pu || p == mu }
				presentV := func(p int32) bool { return p == pv || p == mv }
				// Candidates: each endpoint's master partition, plus mirror
				// partitions when they host the other endpoint too.
				bestCost := int32(3)
				pick := func(cand int32, cost int32) {
					if cand < 0 || sizes[cand] >= lmax {
						return
					}
					if cost < bestCost || (cost == bestCost && sizes[cand] < sizes[p]) {
						bestCost = cost
						p = cand
					}
				}
				p = pu
				cost := func(cand int32) int32 {
					c := int32(0)
					if !presentU(cand) {
						c++
					}
					if !presentV(cand) {
						c++
					}
					return c
				}
				// Degree rule ordering (lines 21-22): evaluating the
				// lower-degree endpoint's partition first makes it win ties,
				// cutting the higher-degree endpoint.
				if deg[v] > deg[u] {
					pick(pu, cost(pu))
					pick(pv, cost(pv))
				} else {
					pick(pv, cost(pv))
					pick(pu, cost(pu))
				}
				pick(mu, cost(mu))
				pick(mv, cost(mv))
			}
			out[j] = p
			sizes[p]++
		}
		*overflowed = ovf
		return sink.commit(blk, out)
	})
}

// clugpAppendIDs encodes int32 values that may be cluster.None (-1), each
// as uvarint(v+1).
func clugpAppendIDs(buf []byte, ids []int32) []byte {
	for _, id := range ids {
		buf = binary.AppendUvarint(buf, uint64(int64(id)+1))
	}
	return buf
}

// clugpLoadIDs fills dst from a uvarint(v+1) stream, rejecting values above
// max (exclusive upper bound on the decoded id), and returns the remainder.
func clugpLoadIDs(dst []int32, data []byte, max int64, what string) ([]byte, error) {
	for i := range dst {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return nil, fmt.Errorf("clugp: truncated %s state", what)
		}
		data = data[n:]
		if int64(x) > max {
			return nil, fmt.Errorf("clugp: %s id %d out of range [-1, %d)", what, int64(x)-1, max)
		}
		dst[i] = int32(int64(x) - 1)
	}
	return data, nil
}

// SnapshotState implements Checkpointer. A CLUGP checkpoint carries the
// pass-3 inputs - the vertex->cluster and cluster->partition tables, vertex
// degrees and mirror marks, all read-only during the pass - plus the live
// balance bookkeeping (sizes, overflowed) and the pass 1-2 diagnostics, so
// a resumed run replays neither clustering nor the game.
func (c *CLUGP) SnapshotState(ck *store.Checkpoint) error {
	lv := c.live
	if lv == nil {
		return fmt.Errorf("clugp: checkpoint requested outside the transformation pass")
	}
	ck.AddSection(sectionCLUGPAssign, clugpAppendIDs(nil, lv.cres.Assign))
	ck.AddSection(sectionCLUGPSplitFrom, clugpAppendIDs(nil, lv.cres.SplitFrom))
	ck.AddSection(sectionCLUGPDegree, metrics.AppendDegreeState(nil, lv.cres.Degree))
	ck.AddSection(sectionCLUGPCPart, clugpAppendIDs(nil, lv.cpart))
	ck.AddSection(sectionCLUGPSizes, metrics.AppendSizesState(nil, lv.sizes))
	s := lv.scalars
	var buf []byte
	for _, x := range []uint64{
		uint64(s.numClusters),
		uint64(s.splits),
		uint64(s.migrations),
		uint64(s.gameRounds),
		uint64(s.gameMoves),
		uint64(s.gameBatches),
		uint64(*lv.overflowed),
		math.Float64bits(s.intraFrac),
		math.Float64bits(s.healedFrac),
		uint64(s.clusterNs),
		uint64(s.buildNs),
		uint64(s.gameNs),
		uint64(s.transformNs + int64(time.Since(lv.t3))),
	} {
		buf = binary.AppendUvarint(buf, x)
	}
	ck.AddSection(sectionCLUGPScalars, buf)
	return nil
}

// RestoreState implements Checkpointer, decoding and validating the whole
// pass-3 state eagerly so a forged or mismatched checkpoint fails here, not
// as a panic mid-stream.
func (c *CLUGP) RestoreState(ck *store.Checkpoint) error {
	nv, k := ck.NumVertices, ck.K

	data, err := loadSection(ck, sectionCLUGPScalars)
	if err != nil {
		return err
	}
	var vals [13]uint64
	for i := range vals {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			return fmt.Errorf("clugp: truncated scalars state")
		}
		vals[i] = x
		data = data[n:]
	}
	if err := consumed(data, "clugp scalars"); err != nil {
		return err
	}
	numClusters := int(vals[0])
	if numClusters < 0 || numClusters > nv {
		return fmt.Errorf("clugp: checkpoint has %d clusters for %d vertices", numClusters, nv)
	}

	assign := make([]cluster.ID, nv)
	if data, err = loadSection(ck, sectionCLUGPAssign); err != nil {
		return err
	}
	if data, err = clugpLoadIDs(assign, data, int64(numClusters), "cluster assign"); err != nil {
		return err
	}
	if err := consumed(data, "clugp assign"); err != nil {
		return err
	}

	splitFrom := make([]cluster.ID, nv)
	if data, err = loadSection(ck, sectionCLUGPSplitFrom); err != nil {
		return err
	}
	if data, err = clugpLoadIDs(splitFrom, data, int64(numClusters), "split-from"); err != nil {
		return err
	}
	if err := consumed(data, "clugp split-from"); err != nil {
		return err
	}

	degree := make([]uint32, nv)
	if data, err = loadSection(ck, sectionCLUGPDegree); err != nil {
		return err
	}
	if data, err = metrics.LoadDegreeState(degree, data); err != nil {
		return err
	}
	if err := consumed(data, "clugp degree"); err != nil {
		return err
	}

	cpart := make([]int32, numClusters)
	if data, err = loadSection(ck, sectionCLUGPCPart); err != nil {
		return err
	}
	if data, err = clugpLoadIDs(cpart, data, int64(k), "cluster partition"); err != nil {
		return err
	}
	if err := consumed(data, "clugp cluster partition"); err != nil {
		return err
	}
	for ci, p := range cpart {
		if p < 0 {
			return fmt.Errorf("clugp: cluster %d has no partition in checkpoint", ci)
		}
	}

	sizes := make([]int64, k)
	if data, err = loadSection(ck, sectionCLUGPSizes); err != nil {
		return err
	}
	if data, err = metrics.LoadSizesState(sizes, data); err != nil {
		return err
	}
	if err := consumed(data, "clugp sizes"); err != nil {
		return err
	}
	var assigned int64
	for _, sz := range sizes {
		assigned += sz
	}
	if assigned != ck.Offset {
		return fmt.Errorf("clugp: checkpoint sizes cover %d edges, offset says %d", assigned, ck.Offset)
	}

	c.resume = &clugpResume{
		numEdges: ck.NumEdges,
		cres: &cluster.Result{
			NumClusters: numClusters,
			Assign:      assign,
			Degree:      degree,
			SplitFrom:   splitFrom,
			Splits:      int64(vals[1]),
			Migrations:  int64(vals[2]),
		},
		cpart:      cpart,
		sizes:      sizes,
		overflowed: int64(vals[6]),
		scalars: clugpScalars{
			numClusters: numClusters,
			splits:      int64(vals[1]),
			migrations:  int64(vals[2]),
			gameRounds:  int(vals[3]),
			gameMoves:   int64(vals[4]),
			gameBatches: int(vals[5]),
			intraFrac:   math.Float64frombits(vals[7]),
			healedFrac:  math.Float64frombits(vals[8]),
			clusterNs:   int64(vals[9]),
			buildNs:     int64(vals[10]),
			gameNs:      int64(vals[11]),
			transformNs: int64(vals[12]),
		},
	}
	return nil
}

// StateBytes implements StateSizer. CLUGP's standing state is the two
// mapping tables (vertex->cluster at 4 bytes/vertex, cluster->partition at
// <= 4 bytes/vertex) plus the degree array and divided marks - the O(2|V|)
// of Section III - plus the per-worker game scratch.
func (c *CLUGP) StateBytes(numVertices, numEdges, k int) int64 {
	perVertex := int64(numVertices) * (4 + 4 + 4 + 1) // cluster id, cluster->partition, degree, divided
	threads := c.Threads
	if threads <= 0 {
		threads = 8
	}
	// Each game worker holds k loads and a k-sized scratch.
	gameState := int64(threads) * int64(k) * 16
	return perVertex + gameState + int64(k)*8
}
