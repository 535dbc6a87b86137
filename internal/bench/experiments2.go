package bench

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/engine"
	"repro/internal/partition"
)

// Fig8 regenerates Figure 8 (a-c): PageRank on the simulated PowerGraph
// engine over 32 nodes. (a) communication volume per dataset, (b) runtime
// per dataset, (c) runtime vs injected network RTT on IT.
func Fig8(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	const k = 32
	const iters = 10

	a := Table{
		ID:     "fig8a",
		Title:  "PageRank communication volume, 32 nodes (MB)",
		Header: append([]string{"dataset"}, algos...),
		Note:   "mirror<->master traffic of 10 PageRank iterations; the paper reports TB on the full crawls",
	}
	b := Table{
		ID:     "fig8b",
		Title:  "PageRank runtime, 32 nodes (simulated, ms)",
		Header: append([]string{"dataset"}, algos...),
		Note:   "makespan = per-superstep max node compute + network transfer",
	}
	// The IT placements of 8a/8b are the ones 8c replays under injected
	// RTT.
	itPlacements := map[string]*engine.Placement{}
	for _, ds := range WebDatasets() {
		g := ds.Build(cfg.Scale)
		cfg.logf("fig8: %s (%d vertices, %d edges)", ds.Name, g.NumVertices, g.NumEdges())
		rowA := []string{ds.Name}
		rowB := []string{ds.Name}
		for _, alg := range algos {
			res, err := runNamed(alg, g, k, cfg.Seed, cfg.cache)
			if err != nil {
				return nil, err
			}
			pl, err := engine.NewPlacement(res)
			if err != nil {
				return nil, err
			}
			if ds.Name == "IT" {
				itPlacements[alg] = pl
			}
			_, stats, err := engine.PageRank(pl, engine.PageRankConfig{Iterations: iters})
			if err != nil {
				return nil, err
			}
			rowA = append(rowA, mb(stats.CommBytes))
			rowB = append(rowB, fmt.Sprintf("%.1f", float64(stats.SimTime.Microseconds())/1000))
		}
		a.AddRow(rowA...)
		b.AddRow(rowB...)
	}

	c := Table{
		ID:     "fig8c",
		Title:  "PageRank runtime vs network RTT (IT, 32 nodes, ms)",
		Header: append([]string{"rtt"}, algos...),
		Note:   "RTT injection plays the role of the paper's PUMBA latency experiments",
	}
	for _, rtt := range []time.Duration{10 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond} {
		row := []string{rtt.String()}
		for _, alg := range algos {
			pcfg := engine.PageRankConfig{Iterations: iters}
			pcfg.Cost.RTT = rtt
			_, stats, err := engine.PageRank(itPlacements[alg], pcfg)
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%.0f", float64(stats.SimTime.Microseconds())/1000))
		}
		c.AddRow(row...)
	}
	return []Table{a, b, c}, nil
}

// Fig9 regenerates Figure 9: the ablation study on IT. CLUGP against
// CLUGP-S (pass 1 downgraded to literal Hollocou clustering) and CLUGP-G
// (game replaced by size-greedy placement).
func Fig9(cfg Config) ([]Table, error) { return fig9.build(cfg) }

// Fig10 regenerates Figure 10: (a) runtime of the one-pass heuristics
// against CLUGP at 8/16/32 game threads; (b) the effect of the game batch
// size on quality and runtime.
func Fig10(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	ds, err := DatasetByName("IT")
	if err != nil {
		return nil, err
	}
	g := ds.Build(cfg.Scale)
	const k = 256 // the regime where the one-pass heuristics struggle

	a := Table{
		ID:     "fig10a",
		Title:  fmt.Sprintf("Partitioning runtime vs algorithm/threads (IT, k=%d, ms)", k),
		Header: []string{"algorithm", "threads", "total(ms)", "compute(ms)", "stream(ms)"},
		Note:   "compute = the parallelized cluster-partitioning game; stream = the three streaming passes (the paper's I/O cost); batch 1280 so the batch count exceeds the thread count at this scale",
	}
	for _, alg := range []string{"HDRF", "Greedy", "Mint"} {
		res, err := runNamed(alg, g, k, cfg.Seed, cfg.cache)
		if err != nil {
			return nil, err
		}
		ms := float64(res.Runtime.Microseconds()) / 1000
		a.AddRow(alg, "1", fmt.Sprintf("%.1f", ms), "-", "-")
	}
	for _, threads := range []int{1, 8, 16, 32} {
		p := &partition.CLUGP{Seed: cfg.Seed, Threads: threads, BatchSize: 1280}
		res, err := partition.RunCached(p, g, k, cfg.Seed, cfg.cache)
		if err != nil {
			return nil, err
		}
		tr := p.LastTrace
		stream := tr.ClusterTime + tr.BuildTime + tr.TransformTime
		cfg.logf("  CLUGP/%d  k=%d RF=%.3f t=%v game=%v", threads, k, res.Quality.ReplicationFactor, res.Runtime.Round(time.Millisecond), tr.GameTime.Round(time.Millisecond))
		a.AddRow(fmt.Sprintf("CLU%d", threads), fmt.Sprintf("%d", threads),
			fmt.Sprintf("%.1f", float64(res.Runtime.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(tr.GameTime.Microseconds())/1000),
			fmt.Sprintf("%.1f", float64(stream.Microseconds())/1000))
	}

	b := Table{
		ID:     "fig10b",
		Title:  fmt.Sprintf("Effect of game batch size (IT, k=%d)", k),
		Header: []string{"batch", "RF", "runtime(ms)"},
		Note:   "the paper finds runtime insensitive to batch size with a slight upward trend",
	}
	for _, batch := range []int{640, 1280, 2560, 6400, 12800, 25600} {
		p := &partition.CLUGP{Seed: cfg.Seed, BatchSize: batch}
		res, err := partition.RunCached(p, g, k, cfg.Seed, cfg.cache)
		if err != nil {
			return nil, err
		}
		cfg.logf("  CLUGP b=%-6d RF=%.3f t=%v", batch, res.Quality.ReplicationFactor, res.Runtime.Round(time.Millisecond))
		b.AddRow(fmt.Sprintf("%d", batch), f3(res.Quality.ReplicationFactor), fmt.Sprintf("%.1f", float64(res.Runtime.Microseconds())/1000))
	}
	return []Table{a, b}, nil
}

// Fig11 regenerates Figure 11: (a) replication factor vs the imbalance
// factor tau, and (b) vs the relative weight of load balancing in the game
// cost, on all four web graphs at 32 partitions.
func Fig11(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	const k = 32
	order := []string{"Arabic", "IT", "UK", "WebBase"}
	graphs, err := buildGraphs(order, cfg.Scale, cfg.logf)
	if err != nil {
		return nil, err
	}
	runCLUGP := func(p *partition.CLUGP, name string) (float64, error) {
		res, err := partition.RunCached(p, graphs[name], k, cfg.Seed, cfg.cache)
		if err != nil {
			return 0, err
		}
		return res.Quality.ReplicationFactor, nil
	}

	a := Table{
		ID:     "fig11a",
		Title:  "CLUGP replication factor vs imbalance factor tau (k=32)",
		Header: append([]string{"tau"}, order...),
	}
	for _, tau := range []float64{1.0, 1.02, 1.04, 1.06, 1.08, 1.10} {
		row := []string{fmt.Sprintf("%.2f", tau)}
		for _, name := range order {
			rf, err := runCLUGP(&partition.CLUGP{Seed: cfg.Seed, Tau: tau}, name)
			if err != nil {
				return nil, err
			}
			cfg.logf("  CLUGP tau=%.2f %s RF=%.3f", tau, name, rf)
			row = append(row, f3(rf))
		}
		a.AddRow(row...)
	}

	b := Table{
		ID:     "fig11b",
		Title:  "CLUGP replication factor vs relative weight (k=32)",
		Header: append([]string{"weight"}, order...),
		Note:   "weight scales the load-balance term of the game cost; 0.5 is the default equal weighting",
	}
	for _, w := range []float64{0.1, 0.3, 0.5, 0.7, 0.9} {
		row := []string{fmt.Sprintf("%.1f", w)}
		for _, name := range order {
			rf, err := runCLUGP(&partition.CLUGP{Seed: cfg.Seed, RelWeight: w}, name)
			if err != nil {
				return nil, err
			}
			cfg.logf("  CLUGP w=%.1f %s RF=%.3f", w, name, rf)
			row = append(row, f3(rf))
		}
		b.AddRow(row...)
	}
	return []Table{a, b}, nil
}

// Table1 regenerates Table I: the qualitative time/quality classification,
// derived from measured data (runtime and RF at k=64 on UK) so the claimed
// classes are backed by numbers.
func Table1(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	graphs, err := buildGraphs(table1.datasets, cfg.Scale, cfg.logf)
	if err != nil {
		return nil, err
	}
	cells, err := table1.cells(cfg, graphs)
	if err != nil {
		return nil, err
	}
	// Classify into thirds by rank.
	classOf := func(rank, n int) string {
		switch {
		case rank*3 < n:
			return "Low"
		case rank*3 < 2*n:
			return "Medium"
		default:
			return "High"
		}
	}
	classes := func(less func(a, b Cell) bool) map[string]string {
		ranked := append([]Cell(nil), cells...)
		sort.Slice(ranked, func(i, j int) bool { return less(ranked[i], ranked[j]) })
		class := map[string]string{}
		for i, c := range ranked {
			class[c.Algorithm] = classOf(i, len(ranked))
		}
		return class
	}
	timeClass := classes(func(a, b Cell) bool { return a.RuntimeNS < b.RuntimeNS })
	// Lower RF = higher quality.
	qualClass := classes(func(a, b Cell) bool { return a.ReplicationFactor > b.ReplicationFactor })
	t := Table{
		ID:     "table1",
		Title:  "Vertex-cut streaming partitioning algorithms (measured, UK k=64)",
		Header: []string{"algorithm", "time cost", "quality", "runtime(ms)", "RF"},
		Note:   "classes derived from measured ranks; the paper's Table I claims Hashing/DBH Low/Low, Mint Medium/Medium, Greedy/HDRF High/High, CLUGP Low/High",
	}
	for _, c := range cells {
		t.AddRow(c.Algorithm, timeClass[c.Algorithm], qualClass[c.Algorithm], runtimeColumn(c), rfColumn(c))
	}
	return []Table{t}, nil
}
