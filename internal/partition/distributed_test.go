package partition

import (
	"errors"
	"io"
	"reflect"
	"slices"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

func TestDistributedCLUGPValid(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 8000, OutDegree: 8, IntraSite: 0.88, Seed: 21})
	for _, nodes := range []int{1, 2, 4, 8} {
		p := &DistributedCLUGP{Nodes: nodes, Seed: 1}
		res, err := Run(p, g, 16, 1)
		if err != nil {
			t.Fatalf("nodes=%d: %v", nodes, err)
		}
		if len(res.Assign) != g.NumEdges() {
			t.Fatalf("nodes=%d: assignment truncated", nodes)
		}
		for _, a := range res.Assign {
			if a < 0 || a >= 16 {
				t.Fatalf("nodes=%d: invalid partition %d", nodes, a)
			}
		}
	}
}

func TestDistributedCLUGPBalance(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 8000, OutDegree: 8, IntraSite: 0.88, Seed: 22})
	k := 16
	nodes := 4
	p := &DistributedCLUGP{Nodes: nodes, Seed: 1}
	res, err := Run(p, g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Union of per-shard tau=1.0 bounds: global Lmax + one ceiling unit per
	// shard.
	lmax := int64((float64(g.NumEdges()))/float64(k)) + int64(nodes) + 1
	for pid, s := range res.Quality.Sizes {
		if s > lmax {
			t.Fatalf("partition %d holds %d > combined Lmax %d", pid, s, lmax)
		}
	}
}

func TestDistributedCLUGPQualityDegradesGracefully(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 10000, OutDegree: 8, IntraSite: 0.88, Seed: 23})
	k := 32
	single, err := Run(&CLUGP{Seed: 1}, g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	sharded, err := Run(&DistributedCLUGP{Nodes: 4, Seed: 1}, g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	hash, err := Run(&Hashing{Seed: 1}, g, k, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Sharding costs quality but must stay well ahead of random placement.
	if sharded.Quality.ReplicationFactor > 1.6*single.Quality.ReplicationFactor {
		t.Fatalf("sharding cost too high: %.3f vs single %.3f",
			sharded.Quality.ReplicationFactor, single.Quality.ReplicationFactor)
	}
	if sharded.Quality.ReplicationFactor >= hash.Quality.ReplicationFactor {
		t.Fatalf("sharded CLUGP (%.3f) no better than hashing (%.3f)",
			sharded.Quality.ReplicationFactor, hash.Quality.ReplicationFactor)
	}
}

func TestDistributedCLUGPDeterministic(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 4000, OutDegree: 6, IntraSite: 0.85, Seed: 24})
	a, err := Run(&DistributedCLUGP{Nodes: 4, Seed: 5}, g, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(&DistributedCLUGP{Nodes: 4, Seed: 5}, g, 8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Assign {
		if a.Assign[i] != b.Assign[i] {
			t.Fatalf("nondeterministic at edge %d", i)
		}
	}
}

func TestDistributedCLUGPMoreNodesThanEdges(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 100, OutDegree: 2, Seed: 25})
	p := &DistributedCLUGP{Nodes: 1 << 20, Seed: 1}
	res, err := Run(p, g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assign) != g.NumEdges() {
		t.Fatal("assignment truncated")
	}

	// run opens one shard when there are more nodes than edges, and 3
	// shards of 2, 2 and 1 edges for 4 nodes on 5. The nodes run one after
	// another, so StateBytes is the largest node's.
	five := graph.New(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5}})
	for _, tc := range []struct {
		nodes, shards int
	}{{1 << 20, 1}, {4, 3}, {5, 5}, {2, 2}} {
		d := &DistributedCLUGP{Nodes: tc.nodes, Seed: 1}
		if got := len(d.shardBounds(five.NumEdges())); got != tc.shards {
			t.Fatalf("nodes=%d: %d shards, want %d", tc.nodes, got, tc.shards)
		}
		checkLargestNode(t, d, five, 4)
	}
	checkLargestNode(t, &DistributedCLUGP{Nodes: 3, Seed: 2}, gen.Web(gen.WebConfig{N: 4000, OutDegree: 6, Seed: 26}), 8)
}

// checkLargestNode: CLUGP-D's StateBytes on g is the largest of the CLUGP
// runs on each of its shards, each with its node's seed.
func checkLargestNode(t *testing.T, d *DistributedCLUGP, g *graph.Graph, k int) {
	t.Helper()
	res, err := Run(d, g, k, 1)
	if err != nil {
		t.Fatalf("nodes=%d: %v", d.Nodes, err)
	}
	src := stream.NewView(g, stream.BFS, 1).Source(g.NumVertices)
	var want int64
	for nd, b := range d.shardBounds(src.Len()) {
		node, err := RunStreamed(&CLUGP{Seed: d.Seed ^ (0x9e3779b97f4a7c15 * uint64(nd+1))}, shard(src, b[0], b[1]), stream.BFS, k)
		if err != nil {
			t.Fatal(err)
		}
		want = max(want, node.StateBytes)
	}
	if want == 0 || res.StateBytes != want {
		t.Fatalf("nodes=%d: StateBytes %d, want the largest node's %d", d.Nodes, res.StateBytes, want)
	}
}

// plainSource hides a source's concrete type, so CLUGP-D reads it through
// shard windows rather than view slices.
type plainSource struct{ stream.Source }

// TestDistributedCLUGPOverAnySource: CLUGP-D over a retry-wrapped source
// that is no view - read through shard windows - gives the same assignment
// and quality as over the view it wraps, read through view slices.
func TestDistributedCLUGPOverAnySource(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 4000, OutDegree: 6, IntraSite: 0.85, Seed: 26})
	for _, nodes := range []int{1, 3, 4} {
		d := &DistributedCLUGP{Nodes: nodes, Seed: 2}
		want, wantRes := collectAssignments(t, d, memSource(g), 8)
		src := stream.Retry(plainSource{stream.Rebatch(memSource(g), 1000)}, stream.RetryConfig{})
		got, res := collectAssignments(t, d, src, 8)
		if !slices.Equal(got, want) {
			t.Fatalf("nodes=%d: windowed assignment differs from the view-sliced one", nodes)
		}
		if !reflect.DeepEqual(res.Quality, wantRes.Quality) {
			t.Fatalf("nodes=%d: quality %+v, want %+v", nodes, res.Quality, wantRes.Quality)
		}
	}
}

// TestShardWindowEdgeCases: a window streams exactly edges [lo, hi) of its
// base on every pass, whatever the base's block size - an empty window at
// the stream's end included - and a base that ends before its declared
// Len is an error, not a hang or a short shard.
func TestShardWindowEdgeCases(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 300, OutDegree: 4, Seed: 27})
	n := g.NumEdges()
	for _, bs := range []int{1, 7, 100, n} {
		base := plainSource{stream.Rebatch(memSource(g), bs)}
		for _, b := range [][2]int{{0, n}, {0, 1}, {n - 1, n}, {6, 7}, {7, 101}, {99, 250}, {n, n}, {0, 0}} {
			w := shard(base, b[0], b[1])
			if w.Len() != b[1]-b[0] {
				t.Fatalf("block %d, window %v: Len %d", bs, b, w.Len())
			}
			for pass := 0; pass < 2; pass++ {
				got, err := stream.Collect(w)
				if err != nil {
					t.Fatalf("block %d, window %v: %v", bs, b, err)
				}
				if !slices.Equal(got, g.Edges[b[0]:b[1]]) {
					t.Fatalf("block %d, window %v, pass %d: got %d edges, want edges [%d, %d)", bs, b, pass, len(got), b[0], b[1])
				}
			}
		}
	}

	short := shortSource{memSource(g)}
	for _, b := range [][2]int{{0, n + 10}, {n - 5, n + 10}, {n + 5, n + 10}} {
		if _, err := stream.Collect(shard(short, b[0], b[1])); err == nil {
			t.Fatalf("window %v over a base of %d edges read without error", b, n)
		}
	}
	d := &DistributedCLUGP{Nodes: 3, Seed: 1}
	if _, err := RunOutOfCoreOpts(d, short, 4, nil, OutOfCoreOptions{}); err == nil {
		t.Fatal("CLUGP-D over a base shorter than its Len succeeded")
	}

	// The tail window reads its base to the end, so what the base reports
	// there reaches the consumer: the error of a file source whose unread
	// blocks fail their checksums, or edges beyond the declared Len.
	failing := failAtEnd{memSource(g)}
	if _, err := stream.Collect(shard(failing, n-5, n)); !errors.Is(err, errAtEnd) {
		t.Fatalf("tail window: err %v, want the base's end error", err)
	}
	if _, err := stream.Collect(shard(failing, 0, 5)); err != nil {
		t.Fatalf("inner window read the base's end: %v", err)
	}
	long := longSource{memSource(g)}
	if _, err := stream.Collect(shard(long, long.Len()-5, long.Len())); err == nil {
		t.Fatal("tail window over a base longer than its Len read without error")
	}
}

// shortSource declares 10 more edges than it streams.
type shortSource struct{ stream.Source }

func (s shortSource) Len() int { return s.Source.Len() + 10 }

// longSource declares 10 fewer edges than it streams.
type longSource struct{ stream.Source }

func (s longSource) Len() int { return s.Source.Len() - 10 }

var errAtEnd = errors.New("failed at the end of the stream")

// failAtEnd streams its base but fails where the base would end.
type failAtEnd struct{ stream.Source }

func (s failAtEnd) NextBlock() ([]graph.Edge, error) {
	blk, err := s.Source.NextBlock()
	if err == io.EOF {
		return nil, errAtEnd
	}
	return blk, err
}
