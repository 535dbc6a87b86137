package partition

import (
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// Mint reimplements the quasi-streaming game-theoretic partitioner of Hua
// et al. (TPDS 2019) from its published description: edges arrive in
// batches; within a batch, each edge is a player that best-responds by
// moving to the partition minimizing its local cost (new replicas it would
// create among batch-local co-located endpoints, plus a load term) until the
// batch reaches equilibrium, after which the batch commits and its working
// state is discarded.
//
// Crucially - and unlike Greedy/HDRF - Mint keeps no global replica table:
// its state is O(batch size), which is why the paper's Figure 6 shows it
// well below the heuristic methods. Cross-batch consistency comes from the
// hash-anchored initial strategy (the lower-id endpoint's hash), which
// lands a vertex's edges on the same starting partition in every batch.
// Quality is therefore between the hash methods and the heuristics
// (Table I: Medium/Medium). The batch tables - including the batch edge
// buffer, which is what makes Mint runnable over a source that cannot be
// random-accessed - are scratch reused across batches and across runs.
type Mint struct {
	// BatchSize is the number of edges per game (default 6400).
	BatchSize int
	Seed      uint64

	sizes    []int64
	local    []int64
	totals   []int64
	batch    []graph.Edge
	presence u64Table
	primary  u64Table
}

const (
	// mintMaxRounds caps best-response rounds per batch.
	mintMaxRounds = 4
	// mintBalanceWeight scales the load term of the edge cost.
	mintBalanceWeight = 1.0
)

// u64Table is an open-addressed uint64 -> int32 counter table with a fixed
// hash (xrand.Hash64), power-of-two capacity, linear probing and
// generation-stamped slots so clearing is O(1). It replaces Go maps in
// Mint's batch loops for two reasons: the fixed hash makes the number of
// allocations a cross-process deterministic function of the input (Go maps
// seed their hash per process, so their overflow-bucket allocations vary
// run to run, which would defeat the suite's strict allocation gate), and
// probing a flat array is faster than map access in the per-edge path.
// Entries are never removed within a generation (Mint decrements counters
// to zero but keeps the slot), so linear probing needs no tombstones.
type u64Table struct {
	keys []uint64
	vals []int32
	gen  []uint32
	cur  uint32
	mask int
	used int
}

// reset clears the table in O(1) and guarantees capacity for at least hint
// live keys without growing.
func (t *u64Table) reset(hint int) {
	want := 16
	for want*3 < hint*4 { // invert the 3/4 load-factor bound
		want *= 2
	}
	if len(t.keys) < want {
		t.keys = make([]uint64, want)
		t.vals = make([]int32, want)
		t.gen = make([]uint32, want)
		t.cur = 1
		t.mask = want - 1
		t.used = 0
		return
	}
	t.cur++
	if t.cur == 0 { // generation wrap: re-stamp everything empty
		clear(t.gen)
		t.cur = 1
	}
	t.used = 0
}

// slot returns the index of key's slot, claiming an empty one if absent
// (claimed slots start at value 0).
func (t *u64Table) slot(key uint64) int {
	i := int(xrand.Hash64(key)) & t.mask
	for {
		if t.gen[i] != t.cur {
			if t.used*4 >= len(t.keys)*3 {
				t.growRehash()
				i = int(xrand.Hash64(key)) & t.mask
				continue
			}
			t.gen[i] = t.cur
			t.keys[i] = key
			t.vals[i] = 0
			t.used++
			return i
		}
		if t.keys[i] == key {
			return i
		}
		i = (i + 1) & t.mask
	}
}

// add adjusts key's counter by delta, creating it at zero first.
func (t *u64Table) add(key uint64, delta int32) {
	t.vals[t.slot(key)] += delta
}

// get returns key's counter (0 if absent) without inserting.
func (t *u64Table) get(key uint64) int32 {
	i := int(xrand.Hash64(key)) & t.mask
	for {
		if t.gen[i] != t.cur {
			return 0
		}
		if t.keys[i] == key {
			return t.vals[i]
		}
		i = (i + 1) & t.mask
	}
}

// lookup is get with a presence flag, for tables whose values are ids
// rather than counters (0 is a valid value).
func (t *u64Table) lookup(key uint64) (int32, bool) {
	i := int(xrand.Hash64(key)) & t.mask
	for {
		if t.gen[i] != t.cur {
			return 0, false
		}
		if t.keys[i] == key {
			return t.vals[i], true
		}
		i = (i + 1) & t.mask
	}
}

// bytes is the memory the table's slots hold.
func (t *u64Table) bytes() int64 { return 8*int64(cap(t.keys)) + 4*int64(cap(t.vals)+cap(t.gen)) }

// put sets key's value.
func (t *u64Table) put(key uint64, v int32) {
	t.vals[t.slot(key)] = v
}

// growRehash doubles the table and reinserts the current generation.
func (t *u64Table) growRehash() {
	oldKeys, oldVals, oldGen, oldCur := t.keys, t.vals, t.gen, t.cur
	n := 2 * len(oldKeys)
	t.keys = make([]uint64, n)
	t.vals = make([]int32, n)
	t.gen = make([]uint32, n)
	t.cur = 1
	t.mask = n - 1
	t.used = 0
	for i := range oldKeys {
		if oldGen[i] == oldCur {
			j := t.slot(oldKeys[i])
			t.vals[j] = oldVals[i]
		}
	}
}

// Name implements Partitioner.
func (m *Mint) Name() string { return "Mint" }

// PreferredOrder implements Partitioner: Mint exploits stream locality, so
// BFS order (the web-crawl order) is its best setting, as in the paper.
func (m *Mint) PreferredOrder() stream.Order { return stream.BFS }

// run implements Partitioner: batches are finalized units, so each
// commits to the sink as soon as its game equilibrates.
func (m *Mint) run(src stream.Source, k int, sink *assignSink) error {
	batchSize := m.BatchSize
	if batchSize <= 0 {
		batchSize = 6400
	}
	numEdges := src.Len()
	m.sizes = resetInt64(m.sizes, k)   // committed edges per partition
	m.local = resetInt64(m.local, k)   // current batch's edges per partition
	m.totals = resetInt64(m.totals, k) // sizes + local, the cost basis

	batchCap := min(batchSize, numEdges)
	if cap(m.batch) < batchCap {
		m.batch = make([]graph.Edge, 0, batchCap)
	}
	batch := m.batch[:0]

	err := forEachBlock(src, func(blk []graph.Edge) error {
		for len(blk) > 0 {
			take := batchSize - len(batch)
			if take > len(blk) {
				take = len(blk)
			}
			batch = append(batch, blk[:take]...)
			blk = blk[take:]
			if len(batch) == batchSize {
				if err := m.playBatch(batch, sink, k, numEdges, batchCap); err != nil {
					return err
				}
				batch = batch[:0]
			}
		}
		return nil
	})
	if err == nil && len(batch) > 0 {
		err = m.playBatch(batch, sink, k, numEdges, batchCap)
	}
	m.batch = batch[:0]
	sink.hold(8*int64(cap(m.sizes)+cap(m.local)+cap(m.totals)+cap(batch)) + m.presence.bytes() + m.primary.bytes())
	return err
}

// playBatch runs one batch game to (approximate) equilibrium and commits
// its assignments to the sink.
func (m *Mint) playBatch(batch []graph.Edge, sink *assignSink, k, numEdges, batchCap int) error {
	out := sink.grab(len(batch))
	sizes, local, totals := m.sizes, m.local, m.totals
	kk := uint64(k)

	// presence[v<<16|p] counts batch edges incident to v currently at p.
	presence := &m.presence
	key := func(v graph.VertexID, p int32) uint64 { return uint64(v)<<16 | uint64(uint16(p)) }
	// primary[v] is the partition v's plurality of batch edges sits on -
	// approximated by the most recent strategy an incident edge adopted.
	// Both tables are batch-scoped: Mint keeps no global per-vertex state.
	primary := &m.primary

	presence.reset(2 * batchCap)
	primary.reset(2 * batchCap)
	for p := range local {
		local[p] = 0
	}

	// Initial strategies: hash of the lower-id endpoint anchors each
	// vertex's edges to a consistent home partition across batches.
	for i, e := range batch {
		anchor := e.Src
		if e.Dst < anchor {
			anchor = e.Dst
		}
		p := int32(xrand.Hash64(uint64(anchor)^m.Seed) % kk)
		out[i] = p
		presence.add(key(e.Src, p), 1)
		presence.add(key(e.Dst, p), 1)
		local[p]++
	}
	for p := range totals {
		totals[p] = sizes[p] + local[p]
	}

	avg := float64(numEdges)/float64(k) + 1
	for round := 0; round < mintMaxRounds; round++ {
		changed := false
		// The least-loaded partition is the only attractive strategy
		// beyond those where an endpoint already has presence, so each
		// edge evaluates a constant-size candidate set instead of all k
		// (keeping Mint's per-edge cost k-independent, which is the
		// point of its design).
		light := leastLoadedAll(totals)
		for i, e := range batch {
			cur := out[i]
			// Remove this edge's own contribution so costs are marginal.
			presence.add(key(e.Src, cur), -1)
			presence.add(key(e.Dst, cur), -1)
			totals[cur]--

			best := cur
			bestCost := m.edgeCost(presence, totals, key, e, cur, avg)
			au := int32(xrand.Hash64(uint64(e.Src)^m.Seed) % kk)
			av := int32(xrand.Hash64(uint64(e.Dst)^m.Seed) % kk)
			cands := [5]int32{au, av, light, -1, -1}
			if p, ok := primary.lookup(uint64(e.Src)); ok {
				cands[3] = p
			}
			if p, ok := primary.lookup(uint64(e.Dst)); ok {
				cands[4] = p
			}
			for _, p := range cands {
				if p == cur || p < 0 {
					continue
				}
				if c := m.edgeCost(presence, totals, key, e, p, avg); c < bestCost-1e-12 {
					bestCost = c
					best = p
				}
			}
			if best != cur {
				out[i] = best
				changed = true
			}
			presence.add(key(e.Src, best), 1)
			presence.add(key(e.Dst, best), 1)
			totals[best]++
			primary.put(uint64(e.Src), best)
			primary.put(uint64(e.Dst), best)
		}
		if !changed {
			break
		}
	}

	// Commit: only partition sizes survive the batch.
	for _, p := range out {
		sizes[p]++
	}
	return sink.commit(batch, out)
}

// edgeCost is the player cost of edge e choosing partition p: one unit per
// endpoint that no co-batched edge has at p (a would-be replica), plus the
// normalized load of p including the batch edges already there.
func (m *Mint) edgeCost(presence *u64Table, totals []int64, key func(graph.VertexID, int32) uint64, e graph.Edge, p int32, avg float64) float64 {
	var rep float64
	if presence.get(key(e.Src, p)) == 0 {
		rep++
	}
	if presence.get(key(e.Dst, p)) == 0 {
		rep++
	}
	return rep + mintBalanceWeight*float64(totals[p])/avg
}
