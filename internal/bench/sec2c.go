package bench

import (
	"fmt"

	"repro/internal/edgecut"
)

// Sec2C quantifies Section II-C's premise - "traditional balanced edge-cut
// partitioning performs poorly on power-law graphs [while] power-law graphs
// have good vertex-cuts" - by putting both families on the same axis: the
// number of synchronization messages one PageRank superstep needs.
//
// Under edge-cut, every cut edge carries one message per direction per
// superstep: messages = 2 * cut edges. Under vertex-cut, every mirror
// exchanges one gather and one sync message with its master: messages =
// 2 * sum_v (|P(v)|-1). The experiment reports both, normalized per vertex,
// for the web graph (UK) and the social graph (Twitter) at 32 partitions.
func Sec2C(cfg Config) ([]Table, error) {
	cfg = cfg.withDefaults()
	const k = 32
	t := Table{
		ID:     "sec2c",
		Title:  "Edge-cut vs vertex-cut: sync messages per superstep per vertex (k=32)",
		Header: []string{"dataset", "family", "algorithm", "msgs/vertex", "balance"},
		Note:   "edge-cut: 2*cut edges; vertex-cut: 2*sum(|P(v)|-1); balance is vertex balance (edge-cut) or relative edge balance (vertex-cut)",
	}
	for _, name := range []string{"UK", "Twitter"} {
		ds, err := DatasetByName(name)
		if err != nil {
			return nil, err
		}
		g := ds.Build(cfg.Scale)
		nv := float64(g.NumVertices)
		cfg.logf("sec2c: %s (%d vertices, %d edges)", name, g.NumVertices, g.NumEdges())

		for _, p := range []edgecut.Partitioner{&edgecut.LDG{}, &edgecut.FENNEL{}, &edgecut.Multilevel{Seed: cfg.Seed}} {
			assign, err := p.Partition(g, k)
			if err != nil {
				return nil, fmt.Errorf("sec2c %s %s: %w", name, p.Name(), err)
			}
			q, err := edgecut.Evaluate(g, assign, k)
			if err != nil {
				return nil, err
			}
			t.AddRow(name, "edge-cut", p.Name(),
				f3(2*float64(q.CutEdges)/nv), f3(q.VertexBalance))
		}
		for _, alg := range []string{"HDRF", "CLUGP"} {
			res, err := runNamed(alg, g, k, cfg.Seed, cfg.cache)
			if err != nil {
				return nil, err
			}
			msgs := 2 * float64(res.Quality.Replicas-int64(res.Quality.Vertices))
			t.AddRow(name, "vertex-cut", alg, f3(msgs/nv), f3(res.Quality.RelativeBalance))
		}
	}
	return []Table{t}, nil
}
