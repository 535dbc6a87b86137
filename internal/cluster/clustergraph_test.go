package cluster

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

// fixedResult builds a Result with a hand-chosen assignment for cluster
// graph tests: vertices 0,1 -> cluster 0; 2,3 -> cluster 1; 4 -> cluster 2.
func fixedResult() *Result {
	return &Result{
		NumClusters: 3,
		Assign:      []ID{0, 0, 1, 1, 2},
		Degree:      []uint32{2, 2, 2, 2, 2},
	}
}

func TestBuildGraphCounts(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, // intra cluster 0
		{Src: 2, Dst: 3}, // intra cluster 1
		{Src: 0, Dst: 2}, // 0 -> 1
		{Src: 3, Dst: 1}, // 1 -> 0
		{Src: 4, Dst: 0}, // 2 -> 0
	}
	cg, err := BuildGraph(stream.Of(edges).Source(5), fixedResult())
	if err != nil {
		t.Fatal(err)
	}
	if cg.TotalIntra != 2 || cg.TotalInter != 3 {
		t.Fatalf("intra/inter = %d/%d, want 2/3", cg.TotalIntra, cg.TotalInter)
	}
	if cg.Intra[0] != 1 || cg.Intra[1] != 1 || cg.Intra[2] != 0 {
		t.Fatalf("Intra = %v", cg.Intra)
	}
	// Weight between 0 and 1 combines both directions.
	if w := cg.ArcWeight(0, 1); w != 2 {
		t.Fatalf("Weight(0,1) = %d, want 2", w)
	}
	if w := cg.ArcWeight(1, 0); w != 2 {
		t.Fatalf("Weight(1,0) = %d, want 2 (symmetry)", w)
	}
	if w := cg.ArcWeight(0, 2); w != 1 {
		t.Fatalf("Weight(0,2) = %d, want 1", w)
	}
	if w := cg.ArcWeight(1, 2); w != 0 {
		t.Fatalf("Weight(1,2) = %d, want 0", w)
	}
}

func TestBuildGraphTotalAdjacency(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 2}, {Src: 2, Dst: 0}, {Src: 4, Dst: 2},
	}
	cg, err := BuildGraph(stream.Of(edges).Source(5), fixedResult())
	if err != nil {
		t.Fatal(err)
	}
	if got := cg.TotalAdjacency(1); got != 3 {
		t.Fatalf("TotalAdjacency(1) = %d, want 3", got)
	}
	// Sum of adjacencies counts each directed cut edge twice.
	var sum int64
	for c := 0; c < cg.NumClusters; c++ {
		sum += cg.TotalAdjacency(ID(c))
	}
	if sum != 2*cg.TotalInter {
		t.Fatalf("adjacency sum %d != 2*TotalInter %d", sum, 2*cg.TotalInter)
	}
}

func TestBuildGraphRejectsUnclustered(t *testing.T) {
	res := fixedResult()
	res.Assign[4] = None
	if _, err := BuildGraph(stream.Of([]graph.Edge{{Src: 4, Dst: 0}}).Source(5), res); err == nil {
		t.Fatal("unclustered endpoint accepted")
	}
}

func TestBuildGraphArcsSorted(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 4}, {Src: 0, Dst: 2}, {Src: 2, Dst: 4},
	}
	cg, err := BuildGraph(stream.Of(edges).Source(5), fixedResult())
	if err != nil {
		t.Fatal(err)
	}
	for c := range cg.Adj {
		for i := 1; i < len(cg.Adj[c]); i++ {
			if cg.Adj[c][i].To <= cg.Adj[c][i-1].To {
				t.Fatalf("cluster %d arcs unsorted: %v", c, cg.Adj[c])
			}
		}
	}
}

func TestBuildGraphConservesEdges(t *testing.T) {
	edges := []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 2, Dst: 3},
		{Src: 0, Dst: 4}, {Src: 4, Dst: 4},
	}
	res := fixedResult()
	cg, err := BuildGraph(stream.Of(edges).Source(5), res)
	if err != nil {
		t.Fatal(err)
	}
	if cg.TotalIntra+cg.TotalInter != int64(len(edges)) {
		t.Fatalf("intra %d + inter %d != %d edges", cg.TotalIntra, cg.TotalInter, len(edges))
	}
}

// refBuildGraph is the previous cluster-graph build, kept as the oracle for
// BuildGraph: every crossing edge packed as a (lo,hi) uint64 key, an LSD
// radix sort on the two id digits, then two ordered sweeps over the sorted
// runs that place the below-self and the above-self arcs.
func refBuildGraph(src stream.Source, res *Result) (*Graph, error) {
	m := res.NumClusters
	cg := &Graph{
		NumClusters: m,
		Intra:       make([]int64, m),
		Adj:         make([][]Arc, m),
		AdjTotal:    make([]int64, m),
		Weight:      make([]int64, m),
	}
	var pairs []uint64
	err := stream.ForEach(src, func(_ int, blk []graph.Edge) error {
		for _, e := range blk {
			cu, cv := res.Assign[e.Src], res.Assign[e.Dst]
			if cu == None || cv == None {
				return fmt.Errorf("edge %d->%d has unclustered endpoint", e.Src, e.Dst)
			}
			if cu == cv {
				cg.Intra[cu]++
				cg.TotalIntra++
				continue
			}
			lo, hi := min(cu, cv), max(cu, cv)
			pairs = append(pairs, uint64(uint32(lo))<<32|uint64(uint32(hi)))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	cg.TotalInter = int64(len(pairs))
	tmp := make([]uint64, len(pairs))
	cnt := make([]int32, m+1)
	countingSortByDigit(pairs, tmp, cnt, 0)  // by hi
	countingSortByDigit(tmp, pairs, cnt, 32) // by lo

	// runs calls f once per distinct sorted pair with its multiplicity.
	runs := func(f func(lo, hi ID, w uint32)) {
		for i := 0; i < len(pairs); {
			j := i + 1
			for j < len(pairs) && pairs[j] == pairs[i] {
				j++
			}
			f(ID(pairs[i]>>32), ID(pairs[i]&0xffffffff), uint32(j-i))
			i = j
		}
	}
	clear(cnt)
	arcs := 0
	runs(func(lo, hi ID, _ uint32) { cnt[lo]++; cnt[hi]++; arcs += 2 })
	off := make([]int32, m+1)
	for c := 0; c < m; c++ {
		off[c+1] = off[c] + cnt[c]
	}
	flat := make([]Arc, arcs)
	cursor := cnt
	copy(cursor, off[:m])
	runs(func(lo, hi ID, w uint32) { flat[cursor[hi]] = Arc{To: lo, W: w}; cursor[hi]++ })
	runs(func(lo, hi ID, w uint32) { flat[cursor[lo]] = Arc{To: hi, W: w}; cursor[lo]++ })
	for c := 0; c < m; c++ {
		row := flat[off[c]:off[c+1]]
		if len(row) > 0 {
			cg.Adj[c] = row
		}
		var t int64
		for _, a := range row {
			t += int64(a.W)
		}
		cg.AdjTotal[c] = t
		cg.Weight[c] = 2*cg.Intra[c] + t
	}
	return cg, nil
}

// countingSortByDigit stable-sorts src into dst by the 32-bit digit at the
// given shift (cluster ids, so values are < len(cnt)-1). cnt is scratch of
// length m+1; it is cleared before use.
func countingSortByDigit(src, dst []uint64, cnt []int32, shift uint) {
	clear(cnt)
	for _, p := range src {
		cnt[uint32(p>>shift)+1]++
	}
	for i := 1; i < len(cnt); i++ {
		cnt[i] += cnt[i-1]
	}
	for _, p := range src {
		d := uint32(p >> shift)
		dst[cnt[d]] = p
		cnt[d]++
	}
}

// checkAgainstRef builds the cluster graph both ways and requires every
// field to match, the largest row included.
func checkAgainstRef(t *testing.T, src stream.Source, res *Result) *Graph {
	t.Helper()
	got, err := BuildGraph(src, res)
	if err != nil {
		t.Fatal(err)
	}
	want, err := refBuildGraph(src, res)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumClusters != want.NumClusters || got.TotalIntra != want.TotalIntra || got.TotalInter != want.TotalInter {
		t.Fatalf("clusters/intra/inter %d/%d/%d, reference %d/%d/%d", got.NumClusters, got.TotalIntra,
			got.TotalInter, want.NumClusters, want.TotalIntra, want.TotalInter)
	}
	for name, pair := range map[string][2][]int64{
		"Intra":    {got.Intra, want.Intra},
		"AdjTotal": {got.AdjTotal, want.AdjTotal},
		"Weight":   {got.Weight, want.Weight},
	} {
		if !reflect.DeepEqual(pair[0], pair[1]) {
			t.Fatalf("%s differs from the reference", name)
		}
	}
	largest := 0
	for c := range want.Adj {
		if !reflect.DeepEqual(got.Adj[c], want.Adj[c]) {
			t.Fatalf("Adj[%d] = %v, reference %v", c, got.Adj[c], want.Adj[c])
		}
		if len(want.Adj[c]) > len(want.Adj[largest]) {
			largest = c
		}
	}
	if len(got.Adj) > 0 && !reflect.DeepEqual(got.Adj[largest], want.Adj[largest]) {
		t.Fatalf("largest row %d differs from the reference", largest)
	}
	return got
}

// TestBuildGraphMatchesReference: on clustered web graphs at several Vmax
// (from few large clusters to many small ones), the bucketed build equals
// the radix-sort reference field for field.
func TestBuildGraphMatchesReference(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 4000, OutDegree: 8, IntraSite: 0.8, Seed: 41})
	src := stream.Of(g.Edges).Source(g.NumVertices)
	for _, div := range []int{2, 16, 128, 1024} {
		t.Run(fmt.Sprintf("vmax=E/%d", div), func(t *testing.T) {
			res, err := Run(src, Config{Vmax: max(int64(src.Len()/div), 2)})
			if err != nil {
				t.Fatal(err)
			}
			res.Compact()
			cg := checkAgainstRef(t, src, res)
			if cg.TotalInter == 0 {
				t.Fatal("no crossing edges: the case does not exercise the buckets")
			}
		})
	}
}

// TestBuildBytesMatchAllocation: BuildGraph's reported peak is within 15%
// of what it allocates in total. Nothing the build makes is dropped before
// its sweeps, so its peak is its whole allocation; the graph it returns
// holds Bytes() of it, and the build's own tables the rest.
func TestBuildBytesMatchAllocation(t *testing.T) {
	edges, nv := webEdges(200000, 8)
	src := stream.Of(edges).Source(nv)
	for _, k := range []int{32, 256} {
		res, err := Run(src, Config{Vmax: int64(0.2 * float64(len(edges)) / float64(k))})
		if err != nil {
			t.Fatal(err)
		}
		res.Compact()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		cg, err := BuildGraph(src, res)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		alloc := int64(after.TotalAlloc - before.TotalAlloc)
		t.Logf("k=%d: %d clusters, %d crossing edges: build peak %.2f MB reported, %.2f MB allocated, graph holds %.2f MB",
			k, cg.NumClusters, cg.TotalInter, float64(cg.BuildBytes)/(1<<20), float64(alloc)/(1<<20), float64(cg.Bytes())/(1<<20))
		if math.Abs(float64(cg.BuildBytes)/float64(alloc)-1) > 0.15 {
			t.Errorf("k=%d: build peak reported as %d bytes, the build allocated %d", k, cg.BuildBytes, alloc)
		}
		if cg.Bytes() >= cg.BuildBytes {
			t.Errorf("k=%d: the graph holds %d bytes, not less than the build's peak %d", k, cg.Bytes(), cg.BuildBytes)
		}
	}
}

// TestBuildGraphMatchesReferenceShapes covers the degenerate shapes: no
// crossing edge at all, one pair repeated many times in both directions,
// a cluster with no arcs between clusters that have them, and a hub whose
// row is the largest by far.
func TestBuildGraphMatchesReferenceShapes(t *testing.T) {
	// Vertex v is in cluster v/2, so clusters are pairs of vertices.
	pairsResult := func(nv int) *Result {
		res := &Result{NumClusters: (nv + 1) / 2, Assign: make([]ID, nv)}
		for v := range res.Assign {
			res.Assign[v] = ID(v / 2)
		}
		return res
	}
	var repeated, holes, hub []graph.Edge
	// Clusters 1 and 3 linked 5000 times, in both directions.
	for i := range 5000 {
		e := graph.Edge{Src: graph.VertexID(2 + i%2), Dst: graph.VertexID(6 + i%2)}
		if i%3 == 0 {
			e.Src, e.Dst = e.Dst, e.Src
		}
		repeated = append(repeated, e)
	}
	// Cluster 2 (vertices 4, 5) has only an intra edge; 0, 1 and 3 are
	// linked around it.
	holes = []graph.Edge{{Src: 0, Dst: 2}, {Src: 4, Dst: 5}, {Src: 6, Dst: 1}, {Src: 3, Dst: 7}, {Src: 7, Dst: 0}}
	// Cluster 0 links to every other cluster, twice to the odd ones.
	for c := 1; c < 500; c++ {
		hub = append(hub, graph.Edge{Src: graph.VertexID(2 * c), Dst: graph.VertexID(c % 2)})
		if c%2 == 1 {
			hub = append(hub, graph.Edge{Src: 1, Dst: graph.VertexID(2*c + 1)})
		}
	}
	for _, tc := range []struct {
		name  string
		nv    int
		edges []graph.Edge
	}{
		{"no-crossing", 8, []graph.Edge{{Src: 0, Dst: 1}, {Src: 3, Dst: 2}, {Src: 4, Dst: 4}}},
		{"repeated-pair", 8, repeated},
		{"arcless-cluster", 8, holes},
		{"hub", 1000, hub},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cg := checkAgainstRef(t, stream.Of(tc.edges).Source(tc.nv), pairsResult(tc.nv))
			switch tc.name {
			case "repeated-pair":
				if w := cg.ArcWeight(1, 3); w != 5000 {
					t.Fatalf("repeated pair weighs %d, want 5000", w)
				}
			case "arcless-cluster":
				if cg.Adj[2] != nil || cg.Intra[2] != 1 {
					t.Fatalf("cluster 2 has arcs %v, intra %d", cg.Adj[2], cg.Intra[2])
				}
			case "hub":
				if len(cg.Adj[0]) != 499 || cg.AdjTotal[0] != 499+250 {
					t.Fatalf("hub row has %d arcs weighing %d", len(cg.Adj[0]), cg.AdjTotal[0])
				}
			}
		})
	}
}

// TestBuildLimits: crossing counts beyond the uint32 bucket offsets and
// arc counts beyond the int32 row offsets are errors, not wraps. Checked
// on the counts alone, since the real thing needs 4G edges.
func TestBuildLimits(t *testing.T) {
	for _, tc := range []struct {
		crossing, arcs int64
		ok             bool
	}{
		{0, 0, true},
		{maxCrossing, math.MaxInt32, true},
		{maxCrossing + 1, 0, false},
		{1 << 40, 2, false},
		{1000, math.MaxInt32 + 1, false},
	} {
		if err := checkBuildLimits(tc.crossing, tc.arcs); (err == nil) != tc.ok {
			t.Errorf("checkBuildLimits(%d, %d) = %v, want ok=%v", tc.crossing, tc.arcs, err, tc.ok)
		}
	}
}
