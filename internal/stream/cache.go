package stream

import (
	"sync"
	"sync/atomic"

	"repro/internal/graph"
)

// Cache memoizes ordered stream views per graph. The experiment suite runs
// every algorithm x k x seed cell against the same handful of graphs, and
// without a cache each run re-materializes its stream order from scratch -
// a full BFS traversal or shuffle per run. A Cache computes each
// distinct (graph, order, seed) permutation exactly once and hands the same
// View to every subsequent caller, turning the suite's per-run O(|E|)
// ordering cost into a map lookup.
//
// Because an order is a permutation over the graph's own edge slice, a
// cached entry costs 4 bytes per edge (one int32 index) instead of the 8 an
// edge copy used to, and the View it returns exposes no mutable state:
// sharing one entry across concurrent runs is safe by construction.
//
// A Cache is safe for concurrent use; concurrent requests for the same key
// block until the single computation finishes, while requests for different
// keys proceed independently.
//
// Keys hold the *graph.Graph pointer, so a Cache keeps every graph it has
// seen alive. Scope a Cache to one suite or experiment run and let it go
// out of scope with the graphs it ordered.
type Cache struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
	builds  atomic.Int64
	bytes   atomic.Int64
}

type cacheKey struct {
	g     *graph.Graph
	order Order
	seed  uint64
}

type cacheEntry struct {
	once sync.Once
	view View
}

// NewCache returns an empty stream-order cache.
func NewCache() *Cache {
	return &Cache{entries: make(map[cacheKey]*cacheEntry)}
}

// View is NewView(g, order, seed) served from the cache: the first request
// for a key computes the permutation, every later request returns a View
// sharing it. seed is part of the key only for Random, the one order it
// affects.
func (c *Cache) View(g *graph.Graph, order Order, seed uint64) View {
	if order != Random {
		seed = 0
	}
	key := cacheKey{g: g, order: order, seed: seed}
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		e = &cacheEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() {
		c.builds.Add(1)
		e.view = NewView(g, order, seed)
		c.bytes.Add(e.view.OrderBytes())
	})
	return e.view
}

// Builds reports how many distinct orderings the cache has materialized -
// the suite's "each stream order computed at most once" invariant is
// Builds() staying at the number of distinct (graph, order, seed) keys
// (seed only distinguishes Random) regardless of how many runs consumed
// them.
func (c *Cache) Builds() int64 { return c.builds.Load() }

// OrderBytes reports the memory held by the cached orderings themselves
// (the permutations; base edge slices belong to their graphs). With the
// permutation representation this is 4 bytes per edge per non-natural
// order - half of the 8 bytes per edge the former edge-copy representation
// paid.
func (c *Cache) OrderBytes() int64 { return c.bytes.Load() }
