package repro

import (
	"bytes"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"
)

// The facade tests exercise the library exactly as a downstream user would:
// through the re-exported API only.

func TestFacadeEndToEnd(t *testing.T) {
	g := GenerateWeb(WebConfig{N: 5000, OutDegree: 8, IntraSite: 0.85, Seed: 1})
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	res, err := Partition(g, "CLUGP", 16, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Quality.ReplicationFactor < 1 || res.Quality.RelativeBalance < 1 {
		t.Fatalf("implausible quality %+v", res.Quality)
	}
	pl, err := NewPlacement(res)
	if err != nil {
		t.Fatal(err)
	}
	ranks, stats, err := PageRank(pl, PageRankConfig{Iterations: 5})
	if err != nil {
		t.Fatal(err)
	}
	ref := ReferencePageRank(g, 0.85, 5)
	for v := range ref {
		if math.Abs(ranks[v]-ref[v]) > 1e-9 {
			t.Fatalf("rank mismatch at %d", v)
		}
	}
	if stats.Messages == 0 {
		t.Fatal("no messages counted")
	}
}

func TestFacadeEdgeListRoundTrip(t *testing.T) {
	g := GenerateErdosRenyi(100, 300, 2)
	var sb strings.Builder
	if err := g.WriteEdgeList(&sb); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("roundtrip lost edges: %d vs %d", back.NumEdges(), g.NumEdges())
	}
}

func TestFacadePartitionerNames(t *testing.T) {
	for _, name := range PartitionerNames() {
		p, err := NewPartitioner(name, 1)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() != name {
			t.Fatalf("name mismatch: %s vs %s", p.Name(), name)
		}
	}
	if len(Suite(1)) != 6 {
		t.Fatal("suite size changed")
	}
}

func TestFacadePipeline(t *testing.T) {
	g := GenerateWeb(WebConfig{N: 2000, OutDegree: 6, IntraSite: 0.85, Seed: 3})
	p := &CLUGP{Seed: 3}
	res, err := RunPartitioner(p, g, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr := p.LastTrace; tr == nil || tr.NumClusters == 0 || tr.GameBatches == 0 || res.Quality == nil {
		t.Fatal("pipeline stages missing")
	}
}

func TestFacadeExperiments(t *testing.T) {
	if len(ExperimentNames()) != 11 {
		t.Fatalf("%d experiments", len(ExperimentNames()))
	}
	tables, err := RunExperiment("6", ExperimentConfig{Scale: 0.05, Ks: []int{4, 256}})
	if err != nil {
		t.Fatal(err)
	}
	if len(tables) == 0 {
		t.Fatal("no tables")
	}
}

func TestFacadeDatasets(t *testing.T) {
	if len(Datasets()) != 5 {
		t.Fatal("dataset registry changed")
	}
}

func TestFacadeEngineApps(t *testing.T) {
	g := GenerateWeb(WebConfig{N: 2000, OutDegree: 6, IntraSite: 0.85, Seed: 4})
	res, err := Partition(g, "DBH", 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := NewPlacement(res)
	if err != nil {
		t.Fatal(err)
	}
	prev := runtime.GOMAXPROCS(1)
	seq, _, err := PageRank(pl, PageRankConfig{Iterations: 4})
	runtime.GOMAXPROCS(2)
	par, _, err2 := PageRank(pl, PageRankConfig{Iterations: 4})
	runtime.GOMAXPROCS(prev)
	if err != nil || err2 != nil {
		t.Fatal(err, err2)
	}
	for v := range seq {
		if seq[v] != par[v] {
			t.Fatal("PageRank at GOMAXPROCS 2 diverged from GOMAXPROCS 1")
		}
	}
	labels, _ := LabelPropagation(pl, 10, CostModel{})
	want := ReferenceLabelPropagation(g, 10)
	for v := range want {
		if labels[v] != want[v] {
			t.Fatal("label propagation diverged")
		}
	}
}

func TestFacadeEdgeCut(t *testing.T) {
	g := GenerateWeb(WebConfig{N: 2000, OutDegree: 6, IntraSite: 0.9, Seed: 5})
	for _, p := range []EdgeCutPartitioner{&LDG{}, &FENNEL{}, &Multilevel{Seed: 1}} {
		assign, err := p.Partition(g, 4)
		if err != nil {
			t.Fatal(err)
		}
		q, err := EvaluateEdgeCut(g, assign, 4)
		if err != nil {
			t.Fatal(err)
		}
		if q.CutFraction < 0 || q.CutFraction > 1 {
			t.Fatalf("%s: cut fraction %v", p.Name(), q.CutFraction)
		}
	}
}

// TestFacadeEvaluatorsRejectBadK: both quality evaluators refuse k < 1
// with an error that names k, where k = -1 used to panic in makeslice and
// EvaluateStream at k = 0 returned a Quality with MinSize MaxInt64.
func TestFacadeEvaluatorsRejectBadK(t *testing.T) {
	g := GenerateWeb(WebConfig{N: 500, OutDegree: 4, Seed: 5})
	res, err := Partition(g, "HDRF", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	cut, err := (&LDG{}).Partition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, -1} {
		want := fmt.Sprintf("k must be >= 1, got %d", k)
		if q, err := EvaluateStream(res.Stream, res.Assign, k); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("EvaluateStream at k=%d: %+v, %v; want an error containing %q", k, q, err, want)
		}
		if q, err := EvaluateEdgeCut(g, cut, k); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("EvaluateEdgeCut at k=%d: %+v, %v; want an error containing %q", k, q, err, want)
		}
	}
}

func TestFacadeCompressedStore(t *testing.T) {
	g := GenerateWeb(WebConfig{N: 1000, OutDegree: 5, Seed: 6})
	var buf bytes.Buffer
	if err := WriteCompressed(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCompressed(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("compressed roundtrip lost edges")
	}
}

func TestFacadeDistributedCLUGP(t *testing.T) {
	g := GenerateWeb(WebConfig{N: 3000, OutDegree: 6, IntraSite: 0.85, Seed: 7})
	p := &DistributedCLUGP{Nodes: 4, Seed: 7}
	res, err := RunPartitioner(p, g, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Algorithm != "CLUGP-D" || len(res.Assign) != g.NumEdges() {
		t.Fatalf("distributed run malformed: %s %d", res.Algorithm, len(res.Assign))
	}
}

func TestFacadeGraphOps(t *testing.T) {
	g := NewGraph(0, []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}})
	csr := BuildCSR(g)
	if csr.OutDegree(0) != 1 {
		t.Fatal("CSR wrong")
	}
	stats := ComputeStats(g)
	if stats.NumEdges != 2 {
		t.Fatal("stats wrong")
	}
	edges := StreamEdges(g, OrderRandom, 5)
	if len(edges) != 2 {
		t.Fatal("stream wrong")
	}
	cc := ReferenceComponents(g)
	if cc[2] != 0 {
		t.Fatal("components wrong")
	}
}
