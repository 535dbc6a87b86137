// Package core exposes the paper's primary contribution - the CLUGP
// three-pass restreaming pipeline - as individually inspectable stages, for
// callers who want more than the black-box partition.CLUGP: research code
// examining the clustering, the cluster graph, or the game equilibrium
// between passes.
package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/stream"
)

// Options mirror partition.CLUGP's knobs (see that type for semantics).
type Options struct {
	K                int
	Tau              float64
	VmaxFactor       float64
	RelWeight        float64
	Lambda           float64
	BatchSize        int
	Threads          int
	MigrateMaxDegree int
	DisableSplitting bool
	GreedyAssign     bool
	Seed             uint64
	// Order overrides the stream order (default BFS, the paper's setting).
	Order stream.Order
	// OrderSeed seeds the Random order shuffle.
	OrderSeed uint64
}

// Pipeline is the result of a full CLUGP run with every intermediate stage
// retained.
type Pipeline struct {
	// Stream is the ordered edge stream that was partitioned.
	Stream stream.View
	// Clustering is the pass-1 output.
	Clustering *cluster.Result
	// ClusterGraph is the aggregated cluster-level view feeding pass 2.
	ClusterGraph *cluster.Graph
	// Game is the pass-2 equilibrium (nil when GreedyAssign).
	Game *game.Assignment
	// ClusterPartition maps each cluster to its partition.
	ClusterPartition []int32
	// Result is the final edge partitioning with quality metrics.
	Result *partition.Result
	// Trace carries the pass diagnostics.
	Trace *partition.Trace
}

// Run executes the three passes, retaining each stage. Every component is
// deterministic for fixed options, so the retained stage outputs are
// exactly those behind Result (the final pass re-runs the pipeline through
// the partitioner to share its code path with the experiments; expect about
// twice the cost of a plain partition.Run).
func Run(g *graph.Graph, opts Options) (*Pipeline, error) {
	if opts.K < 1 {
		return nil, fmt.Errorf("core: K must be >= 1, got %d", opts.K)
	}
	order := opts.Order
	if order == stream.Natural {
		order = stream.BFS
	}
	if err := stream.CheckLen(len(g.Edges)); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	s := stream.NewView(g, order, opts.OrderSeed)
	src := s.Source(g.NumVertices)

	p := &partition.CLUGP{
		Tau:              opts.Tau,
		VmaxFactor:       opts.VmaxFactor,
		RelWeight:        opts.RelWeight,
		Lambda:           opts.Lambda,
		BatchSize:        opts.BatchSize,
		Threads:          opts.Threads,
		MigrateMaxDegree: opts.MigrateMaxDegree,
		DisableSplitting: opts.DisableSplitting,
		GreedyAssign:     opts.GreedyAssign,
		Seed:             opts.Seed,
	}

	// Re-run the stages explicitly so each is retained. Pass 1:
	vf := opts.VmaxFactor
	if vf == 0 {
		vf = 0.2
	}
	vmax := int64(vf * float64(s.Len()) / float64(opts.K))
	if vmax < 2 {
		vmax = 2
	}
	cres, err := cluster.Run(src, cluster.Config{
		Vmax:             vmax,
		DisableSplitting: opts.DisableSplitting,
		MigrateMaxDegree: opts.MigrateMaxDegree,
	})
	if err != nil {
		return nil, err
	}
	cres.Compact()
	cg, err := cluster.BuildGraph(src, cres)
	if err != nil {
		return nil, err
	}

	// Pass 2:
	var asg *game.Assignment
	if opts.GreedyAssign {
		asg = game.GreedyAssign(cg, opts.K)
	} else {
		batch := opts.BatchSize
		if batch == 0 {
			batch = 6400
		}
		asg, err = game.Solve(cg, game.Config{
			K:         opts.K,
			Lambda:    opts.Lambda,
			RelWeight: opts.RelWeight,
			BatchSize: batch,
			Threads:   opts.Threads,
			Seed:      opts.Seed,
		})
		if err != nil {
			return nil, err
		}
	}

	// Pass 3 runs through the partitioner so the quality metrics and trace
	// come from the same code path as every experiment.
	res, err := partition.RunStreamed(p, src, order, opts.K)
	if err != nil {
		return nil, err
	}
	return &Pipeline{
		Stream:           s,
		Clustering:       cres,
		ClusterGraph:     cg,
		Game:             asg,
		ClusterPartition: asg.Partition,
		Result:           res,
		Trace:            p.LastTrace,
	}, nil
}
