package stream

import (
	"sync"
	"testing"
	"unsafe"

	"repro/internal/gen"
	"repro/internal/graph"
)

func cacheTestGraph(t *testing.T) *graph.Graph {
	t.Helper()
	return gen.Web(gen.WebConfig{N: 2000, OutDegree: 6, SiteMean: 40, IntraSite: 0.8, CopyFactor: 0.5, Seed: 7})
}

func viewsEqual(a, b View) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := 0; i < a.Len(); i++ {
		if a.At(i) != b.At(i) {
			return false
		}
	}
	return true
}

// samePerm reports whether two views share one permutation (or are both
// natural over the same base).
func samePerm(a, b View) bool {
	pa, pb := a.Perm(), b.Perm()
	if (pa == nil) != (pb == nil) {
		return false
	}
	if pa == nil {
		return len(a.base) == len(b.base) && (len(a.base) == 0 || &a.base[0] == &b.base[0])
	}
	return len(pa) == len(pb) && (len(pa) == 0 || &pa[0] == &pb[0])
}

// TestCacheMatchesView checks the cache returns exactly what a direct
// NewView call produces, for every order.
func TestCacheMatchesView(t *testing.T) {
	g := cacheTestGraph(t)
	c := NewCache()
	for _, order := range []Order{Natural, BFS, Random} {
		want := NewView(g, order, 99)
		got := c.View(g, order, 99)
		if !viewsEqual(got, want) {
			t.Errorf("order %v: cached stream differs from direct NewView", order)
		}
	}
}

// TestCacheComputesOnce checks repeated lookups reuse the same permutation
// and the cache materializes each distinct key exactly once.
func TestCacheComputesOnce(t *testing.T) {
	g := cacheTestGraph(t)
	c := NewCache()
	first := c.View(g, BFS, 1)
	for i := 0; i < 10; i++ {
		again := c.View(g, BFS, uint64(i))
		if !samePerm(again, first) {
			t.Fatalf("lookup %d returned a different permutation; want the cached one", i)
		}
	}
	if got := c.Builds(); got != 1 {
		t.Errorf("Builds() = %d after repeated BFS lookups, want 1 (seed must not fragment non-random orders)", got)
	}

	// Random keys on seed; distinct seeds are distinct streams.
	r1 := c.View(g, Random, 1)
	r2 := c.View(g, Random, 2)
	if viewsEqual(r1, r2) {
		t.Error("Random streams for different seeds are identical")
	}
	if again := c.View(g, Random, 1); !samePerm(again, r1) {
		t.Error("Random lookup with same seed did not reuse the cached permutation")
	}
	if got := c.Builds(); got != 3 {
		t.Errorf("Builds() = %d, want 3 (bfs + two random seeds)", got)
	}
}

// TestCacheConcurrent hammers one key from many goroutines: every caller
// must observe the same permutation and the computation must run exactly
// once.
func TestCacheConcurrent(t *testing.T) {
	g := cacheTestGraph(t)
	c := NewCache()
	const goroutines = 16
	results := make([]View, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = c.View(g, BFS, 0)
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if !samePerm(results[i], results[0]) {
			t.Fatalf("goroutine %d got a different permutation", i)
		}
	}
	if got := c.Builds(); got != 1 {
		t.Errorf("Builds() = %d under concurrency, want 1", got)
	}
}

// TestCacheMemoryHalved pins the representation claim behind the View
// refactor: a cached non-natural order costs 4 bytes per edge (one int32
// permutation entry) - half of the 8 bytes per edge (one graph.Edge) the
// former edge-copy cache paid - and a cached natural order costs nothing.
func TestCacheMemoryHalved(t *testing.T) {
	g := cacheTestGraph(t)
	c := NewCache()

	if sz := unsafe.Sizeof(graph.Edge{}); sz != 8 {
		t.Fatalf("graph.Edge is %d bytes, the halving claim assumes 8", sz)
	}
	edgeCopyBytes := int64(g.NumEdges()) * 8

	v := c.View(g, BFS, 0)
	if got := v.OrderBytes(); got != edgeCopyBytes/2 {
		t.Fatalf("BFS view order costs %d bytes, want %d (half of an edge copy's %d)",
			got, edgeCopyBytes/2, edgeCopyBytes)
	}
	if got := c.OrderBytes(); got != edgeCopyBytes/2 {
		t.Fatalf("cache holds %d order bytes after one BFS order, want %d", got, edgeCopyBytes/2)
	}

	c.View(g, Random, 1)
	c.View(g, Natural, 0) // natural aliases the graph: no order memory
	if got, want := c.OrderBytes(), edgeCopyBytes; got != want {
		t.Fatalf("cache holds %d order bytes after BFS+Random+Natural, want %d", got, want)
	}
}
