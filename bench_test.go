// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VI) at reduced scale, plus micro-benchmarks of the pipeline
// stages. Run the full-size experiments with cmd/experiments; these benches
// exist so `go test -bench=.` exercises every artefact end to end and
// reports per-edge costs.
package repro

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bench"
	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/gen"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/store"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// benchConfig keeps one benchmark iteration around a second.
func benchConfig() bench.Config {
	return bench.Config{Scale: 0.08, Ks: []int{8, 64}, Seed: 42}
}

func runExperiment(b *testing.B, name string) {
	cfg := benchConfig()
	for i := 0; i < b.N; i++ {
		tables, err := bench.Run(name, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(tables) == 0 {
			b.Fatal("no tables")
		}
	}
}

func BenchmarkTable1(b *testing.B) { runExperiment(b, "table1") }
func BenchmarkFig3(b *testing.B)   { runExperiment(b, "3") }
func BenchmarkFig4(b *testing.B)   { runExperiment(b, "4") }
func BenchmarkFig5(b *testing.B)   { runExperiment(b, "5") }
func BenchmarkFig6(b *testing.B)   { runExperiment(b, "6") }
func BenchmarkFig7(b *testing.B)   { runExperiment(b, "7") }
func BenchmarkFig8(b *testing.B)   { runExperiment(b, "8") }
func BenchmarkFig9(b *testing.B)   { runExperiment(b, "9") }
func BenchmarkFig10(b *testing.B)  { runExperiment(b, "10") }
func BenchmarkFig11(b *testing.B)  { runExperiment(b, "11") }

// Micro-benchmarks: per-stage and per-algorithm costs on a fixed graph.

func benchGraph(b *testing.B) *Graph {
	b.Helper()
	return gen.Web(gen.WebConfig{N: 20000, OutDegree: 10, IntraSite: 0.88, Seed: 7})
}

func BenchmarkStreamBFSOrder(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := stream.NewView(g, stream.BFS, 0)
		if s.Len() != g.NumEdges() {
			b.Fatal("edge count changed")
		}
	}
	b.ReportMetric(float64(g.NumEdges()), "edges/op")
}

func BenchmarkPass1Clustering(b *testing.B) {
	g := benchGraph(b)
	s := stream.NewView(g, stream.BFS, 0).Source(g.NumVertices)
	vmax := int64(s.Len() / (5 * 32))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.Run(s, cluster.Config{Vmax: vmax}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Len()), "edges/op")
}

func BenchmarkPass2Game(b *testing.B) { benchPass2Game(b, 32, 0) }

// BenchmarkPass2GameK256 plays the game as CLUGP does at k=256 (batches of
// 6400 clusters), where a best response that scanned every partition would
// dominate; it tracks how pass 2 scales in k.
func BenchmarkPass2GameK256(b *testing.B) { benchPass2Game(b, 256, 6400) }

func benchPass2Game(b *testing.B, k, batch int) {
	g := benchGraph(b)
	s := stream.NewView(g, stream.BFS, 0).Source(g.NumVertices)
	res, err := cluster.Run(s, cluster.Config{Vmax: int64(s.Len() / (5 * k))})
	if err != nil {
		b.Fatal(err)
	}
	res.Compact()
	cg, err := cluster.BuildGraph(s, res)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := game.Solve(cg, game.Config{K: k, BatchSize: batch, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cg.NumClusters), "clusters/op")
}

// BenchmarkClusterGraphBuild isolates the pass-2 input build (the former
// map+sort.Slice hot spot, now a bucketed CSR construction holding one
// cluster id per crossing edge).
func BenchmarkClusterGraphBuild(b *testing.B) {
	g := benchGraph(b)
	s := stream.NewView(g, stream.BFS, 0).Source(g.NumVertices)
	res, err := cluster.Run(s, cluster.Config{Vmax: int64(s.Len() / (5 * 32))})
	if err != nil {
		b.Fatal(err)
	}
	res.Compact()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cluster.BuildGraph(s, res); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.Len()), "edges/op")
}

func benchPartitioner(b *testing.B, name string, k int) {
	g := benchGraph(b)
	p, err := partition.New(name, 1)
	if err != nil {
		b.Fatal(err)
	}
	order := p.PreferredOrder()
	s := stream.NewView(g, order, 1).Source(g.NumVertices)
	// Each iteration is one full run through the executor, as the suite
	// runs it: a fresh result slice, quality scored in the same pass, and
	// the partitioner's scratch reused across iterations.
	var res *partition.Result
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res, err = partition.RunStreamed(p, s, order, k); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(res.Quality.ReplicationFactor, "RF")
	b.ReportMetric(float64(s.Len())*float64(b.N)/b.Elapsed().Seconds(), "edges/s")
	b.ReportMetric(float64(res.StateBytes)/(1<<20), "state-MB")
}

func BenchmarkHashingK32(b *testing.B) { benchPartitioner(b, "Hashing", 32) }
func BenchmarkDBHK32(b *testing.B)     { benchPartitioner(b, "DBH", 32) }
func BenchmarkGreedyK32(b *testing.B)  { benchPartitioner(b, "Greedy", 32) }
func BenchmarkHDRFK32(b *testing.B)    { benchPartitioner(b, "HDRF", 32) }
func BenchmarkMintK32(b *testing.B)    { benchPartitioner(b, "Mint", 32) }
func BenchmarkCLUGPK32(b *testing.B)   { benchPartitioner(b, "CLUGP", 32) }

// The large-k regime, where the paper's runtime claims live (Figure 7).
func BenchmarkHDRFK256(b *testing.B)  { benchPartitioner(b, "HDRF", 256) }
func BenchmarkCLUGPK256(b *testing.B) { benchPartitioner(b, "CLUGP", 256) }

// The small-k end, where HDRF's four candidates cost about as much as
// pricing all k partitions.
func BenchmarkHDRFK4(b *testing.B) { benchPartitioner(b, "HDRF", 4) }

// Ablations called out in DESIGN.md.
func BenchmarkCLUGPNoSplitK64(b *testing.B) { benchPartitioner(b, "CLUGP-S", 64) }
func BenchmarkCLUGPGreedyK64(b *testing.B)  { benchPartitioner(b, "CLUGP-G", 64) }

func BenchmarkPageRank32Nodes(b *testing.B) {
	g := benchGraph(b)
	res, err := Partition(g, "CLUGP", 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	pl, err := NewPlacement(res)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := PageRank(pl, PageRankConfig{Iterations: 10}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDistributedCLUGP4Nodes(b *testing.B) {
	g := benchGraph(b)
	p := &DistributedCLUGP{Nodes: 4, Seed: 1}
	s := stream.NewView(g, p.PreferredOrder(), 1).Source(g.NumVertices)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partition.RunStreamed(p, s, p.PreferredOrder(), 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDistributedCLUGP4NodesFile runs CLUGP-D's four ingest nodes at
// k=32 over the UK-shaped CGR3 file of BenchmarkMmapPass, out of core. Each
// node's pass resets the one file source, decodes past the shards before
// its own and stops at its shard's end, so an op decodes about 2.5 times
// the file per CLUGP pass; BenchmarkDistributedCLUGP4Nodes reads view
// slices, which skip nothing.
func BenchmarkDistributedCLUGP4NodesFile(b *testing.B) {
	path, _ := ukCGR3(b)
	src, err := OpenCompressed(path)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	p := &DistributedCLUGP{Nodes: 4, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunOutOfCoreOpts(p, src, 32, nil, OutOfCoreOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEdgeCutMultilevel(b *testing.B) {
	g := benchGraph(b)
	ml := &Multilevel{Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ml.Partition(g, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEdgeCutLDG(b *testing.B) {
	g := benchGraph(b)
	l := &LDG{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Partition(g, 32); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkStoreWrite(b *testing.B) {
	g := benchGraph(b)
	b.ResetTimer()
	var n int
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := WriteCompressed(&buf, g); err != nil {
			b.Fatal(err)
		}
		n = buf.Len()
	}
	b.ReportMetric(float64(n)/float64(g.NumEdges()), "bytes/edge")
}

func BenchmarkStoreRead(b *testing.B) {
	g := benchGraph(b)
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, g); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCompressed(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// ukCGR3 writes pipebench's UK-shaped web graph (1.2M vertices, 9.6M
// edges) as a CGR3 file in a temp directory and returns its path and edge
// count; the in-memory graph is garbage by the time it returns.
func ukCGR3(b *testing.B) (string, int) {
	b.Helper()
	g := gen.Web(gen.WebConfig{N: 1_200_000, OutDegree: 8, SiteMean: 150, IntraSite: 0.88, CopyFactor: 0.6, Seed: 7})
	path := filepath.Join(b.TempDir(), "uk.cgr")
	f, err := os.Create(path)
	if err != nil {
		b.Fatal(err)
	}
	if err := store.Write(f, g); err != nil {
		b.Fatal(err)
	}
	if err := f.Close(); err != nil {
		b.Fatal(err)
	}
	return path, g.NumEdges()
}

// BenchmarkMmapPass times one full decode pass - Reset, then NextBlock to
// EOF - over a CGR3 file of pipebench's UK-shaped web graph (1.2M
// vertices, 9.6M edges) opened with OpenMmap: the pass CLUGP runs four
// times per partitioning. SetBytes is the file size, so MB/s is on-disk
// bytes decoded.
func BenchmarkMmapPass(b *testing.B) {
	path, ne := ukCGR3(b)
	src, err := store.OpenMmap(path)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	b.SetBytes(src.SizeBytes())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := src.Reset(); err != nil {
			b.Fatal(err)
		}
		n := 0
		for {
			blk, err := src.NextBlock()
			if err == io.EOF {
				break
			}
			if err != nil {
				b.Fatal(err)
			}
			n += len(blk)
		}
		if n != ne {
			b.Fatalf("decoded %d edges, want %d", n, ne)
		}
	}
}

// BenchmarkSaveResultK256 is one saved out-of-core run at k=256: Hashing
// over the UK-shaped CGR3 file of BenchmarkMmapPass, then
// SavedResultFromRun and WriteSavedResult (to io.Discard, so no output
// buffer grows). The result is packaged from the table the run's own
// quality accounting sealed, so B/op is a single 1.2M x 256-bit replica
// table (~38 MB) plus small per-run state.
func BenchmarkSaveResultK256(b *testing.B) {
	path, _ := ukCGR3(b)
	src, err := OpenCompressed(path)
	if err != nil {
		b.Fatal(err)
	}
	defer src.Close()
	p, err := NewPartitioner("Hashing", 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := RunOutOfCoreOpts(p, src, 256, nil, OutOfCoreOptions{})
		if err != nil {
			b.Fatal(err)
		}
		saved, err := SavedResultFromRun(res)
		if err != nil {
			b.Fatal(err)
		}
		if err := WriteSavedResult(io.Discard, saved); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSavedResult is a finished partitioning shaped like pipebench's
// web-k256 result: 1.2M vertices, k=256 and about four replicas per vertex
// at seeded partition ids, so the replica table is 4.8M words.
func benchSavedResult(b *testing.B) *SavedResult {
	b.Helper()
	const nv, k = 1_200_000, 256
	rng := xrand.New(7)
	rs := metrics.NewReplicaSets(nv, k)
	for v := 0; v < nv; v++ {
		for n := 1 + rng.Intn(7); n > 0; n-- {
			rs.Add(VertexID(v), rng.Intn(k))
		}
	}
	sizes := make([]int64, k)
	var ne int64
	for p := range sizes {
		sizes[p] = 30000 + int64(rng.Intn(15000))
		ne += sizes[p]
	}
	return &SavedResult{Algorithm: "CLUGP", Order: "natural", K: k,
		NumVertices: nv, NumEdges: ne, Sizes: sizes, Replicas: rs}
}

func BenchmarkResultWrite(b *testing.B) {
	r := benchSavedResult(b)
	var buf bytes.Buffer
	if err := WriteSavedResult(&buf, r); err != nil { // sizes buf, so B/op is the writer's own
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := WriteSavedResult(&buf, r); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(buf.Len()))
}

func BenchmarkResultRead(b *testing.B) {
	var buf bytes.Buffer
	if err := WriteSavedResult(&buf, benchSavedResult(b)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSavedResult(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEvaluateMetrics(b *testing.B) {
	g := benchGraph(b)
	res, err := Partition(g, "DBH", 32, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EvaluateStream(res.Stream, res.Assign, 32); err != nil {
			b.Fatal(err)
		}
	}
}
