package bench

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/serve"
)

// ServeCell is one grid point of the placement-service benchmark: one
// dataset's partitioning frozen into a snapshot, queried by one or many
// clients. It captures the numbers the serving hot path is built for -
// lookups/sec and tail latency - plus the allocation rate of the query
// path, which is gated to zero at measurement time for the single-client
// cell (the concurrent cell interleaves scheduler allocations and is
// reported but not gated).
type ServeCell struct {
	Dataset string `json:"dataset"`
	// Clients is the number of goroutines querying concurrently (1 = the
	// serial latency reference).
	Clients int    `json:"clients"`
	K       int    `json:"k"`
	Seed    uint64 `json:"seed"`
	// Vertices and Edges describe the partitioned graph (after scaling).
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
	// Lookups is the number of queries timed; LookupsPerSec the aggregate
	// throughput over the measurement wall clock.
	Lookups       int     `json:"lookups"`
	LookupsPerSec float64 `json:"lookups_per_sec"`
	// P50NS and P99NS are per-query latency percentiles over every client's
	// individually timed queries.
	P50NS int64 `json:"p50_ns"`
	P99NS int64 `json:"p99_ns"`
	// AllocsPerOp is heap allocations per query (MemStats delta / lookups).
	// Deterministically 0 for the single-client cell - the query hot path
	// allocates nothing - and enforced there when measured.
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// ID names the cell's grid coordinates, the join key for baseline diffs.
// The "flat" segment names the one snapshot layout, kept so IDs join with
// baselines written when a second layout existed.
func (c ServeCell) ID() string {
	return fmt.Sprintf("serve/%s/flat clients=%d k=%d seed=%d", c.Dataset, c.Clients, c.K, c.Seed)
}

// The serving grid: one moderate clustered dataset, serial and concurrent
// clients. k matches the streaming grid; the client count is fixed (not
// GOMAXPROCS) so cell IDs join across machines.
const (
	serveK            = streamK
	serveLookups      = 1 << 17
	serveMaxClients   = 8
	serveWarmupQuerys = 1 << 12
	serveWindows      = 3 // measured windows at most; see runServeCell
)

var defaultServeDatasets = []string{"UK"}

// runServeCells measures the serving grid serially (the cells time wall
// clock and latency percentiles, so nothing else may run concurrently).
// One partitioning run per dataset feeds every client-count cell.
func runServeCells(cfg SuiteConfig) ([]ServeCell, error) {
	datasets := cfg.ServeDatasets
	if len(datasets) == 0 {
		datasets = defaultServeDatasets
	}
	seed := cfg.Seeds[0]
	var cells []ServeCell
	for _, name := range datasets {
		ds, err := DatasetByName(name)
		if err != nil {
			return nil, fmt.Errorf("bench: serve cells: %w", err)
		}
		g := ds.Build(cfg.Scale)
		p, err := partition.New("CLUGP", seed)
		if err != nil {
			return nil, err
		}
		run, err := partition.Run(p, g, serveK, seed)
		if err != nil {
			return nil, fmt.Errorf("bench: serve cells: partitioning %s: %w", name, err)
		}
		saved, err := serve.FromRun(run)
		if err != nil {
			return nil, err
		}
		cfg.logf("serve: partitioned %s (%d vertices, %d edges, k=%d)",
			name, g.NumVertices, g.NumEdges(), serveK)
		snap, err := serve.NewSnapshot(saved, serve.Options{})
		if err != nil {
			return nil, err
		}
		for _, clients := range []int{1, serveMaxClients} {
			cell, err := runServeCell(snap, clients)
			if err != nil {
				return nil, fmt.Errorf("bench: serve cell %s/%d: %w", name, clients, err)
			}
			cell.Dataset, cell.K, cell.Seed = name, serveK, seed
			cell.Vertices, cell.Edges = g.NumVertices, g.NumEdges()
			// The zero-allocation contract is checked where it is
			// measured: a single client on a settled heap sees exactly the
			// query path's own allocations, and there must be none.
			if clients == 1 && cell.AllocsPerOp != 0 {
				return nil, fmt.Errorf("bench: serve cell %s: query path allocates %.4f/op, want 0",
					name, cell.AllocsPerOp)
			}
			cells = append(cells, cell)
			cfg.logf("  serve %-4s clients=%d  %.1f Mlookups/s  p50=%dns p99=%dns  %.2f allocs/op",
				name, clients, cell.LookupsPerSec/1e6, cell.P50NS, cell.P99NS, cell.AllocsPerOp)
		}
	}
	return cells, nil
}

// serveWindow runs one measured window of client over the given number of
// clients and returns its wall clock, with the MemStats read at its edges.
// Several clients are launched before the window opens, parked until it
// does: a goroutine launch allocates (its closure, and a goroutine
// descriptor whenever the runtime has no free one left over from the
// process's earlier goroutines), and none of that is the query path's.
func serveWindow(clients int, client func(c int), before, after *runtime.MemStats) int64 {
	var wg sync.WaitGroup
	open := make(chan struct{})
	if clients > 1 {
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				<-open
				client(c)
			}(c)
		}
	}
	runtime.ReadMemStats(before)
	start := time.Now()
	if clients == 1 {
		client(0)
	} else {
		close(open)
		wg.Wait()
	}
	wallNS := time.Since(start).Nanoseconds()
	runtime.ReadMemStats(after)
	return wallNS
}

// serveQuery issues the i-th query of the deterministic mixed workload
// (primary lookups, replica-set scans and edge routing in a fixed rotation)
// against snap, using scratch for the replica query.
func serveQuery(snap *serve.Snapshot, i int, scratch []int32) error {
	n := snap.NumVertices()
	v := graph.VertexID(i * 2654435761 % n) // Fibonacci hashing: spread probes over the table
	switch i % 4 {
	case 0, 1:
		_, err := snap.Primary(v)
		return err
	case 2:
		_, err := snap.Replicas(v, scratch[:0])
		return err
	default:
		_, err := snap.RouteEdge(v, graph.VertexID((int(v)+1)%n))
		return err
	}
}

// runServeCell times serveLookups queries against snap from the given
// number of client goroutines. Every query is individually timed; the
// percentiles pool all clients' samples, the throughput divides total
// queries by the measurement wall clock. The MemStats delta spans the
// measurement with GC disabled and the clients already launched, so it
// counts exactly the query path's allocations.
func runServeCell(snap *serve.Snapshot, clients int) (ServeCell, error) {
	perClient := serveLookups / clients
	total := perClient * clients
	samples := make([][]int64, clients)
	scratches := make([][]int32, clients)
	for c := 0; c < clients; c++ {
		samples[c] = make([]int64, perClient)
		scratches[c] = make([]int32, 0, snap.K())
	}
	errs := make([]error, clients)

	client := func(c int) {
		scratch := scratches[c]
		lat := samples[c]
		base := c * perClient
		for i := 0; i < perClient; i++ {
			qs := time.Now()
			if err := serveQuery(snap, base+i, scratch); err != nil {
				errs[c] = err
				return
			}
			lat[i] = time.Since(qs).Nanoseconds()
		}
	}

	// Warm up (page in the tables, touch every scratch), then settle the
	// heap so the measured delta starts from a forced-GC baseline. The
	// client closure is built above this line: its capture allocation must
	// not land in the delta.
	for i := 0; i < serveWarmupQuerys; i++ {
		if err := serveQuery(snap, i, scratches[0]); err != nil {
			return ServeCell{}, err
		}
	}
	gcPercent := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gcPercent)
	runtime.GC()
	// The forced GC also wakes the runtime's post-GC work on another thread
	// (the unique package's map cleanup, which allocates), and that work
	// may land inside the window. With GC off nothing wakes it again, so a
	// window that counted allocations is measured once more, up to
	// serveWindows in all, and the last window stands: the query path's
	// own allocations recur in every window.
	var before, after runtime.MemStats
	var wallNS int64
	for w := 1; ; w++ {
		wallNS = serveWindow(clients, client, &before, &after)
		if after.Mallocs == before.Mallocs || w == serveWindows {
			break
		}
	}
	for _, err := range errs {
		if err != nil {
			return ServeCell{}, err
		}
	}

	all := make([]int64, 0, total)
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	cell := ServeCell{
		Clients:     clients,
		Lookups:     total,
		P50NS:       all[total/2],
		P99NS:       all[total*99/100],
		AllocsPerOp: float64(after.Mallocs-before.Mallocs) / float64(total),
	}
	if wallNS > 0 {
		cell.LookupsPerSec = float64(total) / (float64(wallNS) / 1e9)
	}
	return cell, nil
}
