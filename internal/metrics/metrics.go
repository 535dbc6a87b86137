// Package metrics implements the partition-quality measures of Section II-B:
// the replication factor (Equation 1's objective) and the relative load
// balance (its constraint), plus the replica-set bitsets shared by the
// heuristic partitioners and the memory accounting behind Figure 6.
//
// Evaluator is the one quality accumulator every run scores with. From
// GOMAXPROCS 2 on it applies committed runs to its replica table on an
// applier goroutine of its own, behind the caller, with tables and sizes
// bit-identical to the inline path it takes at GOMAXPROCS 1.
package metrics

import (
	"errors"
	"fmt"
	"math/bits"
	"runtime"
	"sync"

	"repro/internal/graph"
	"repro/internal/stream"
)

// ReplicaSets tracks P(v), the set of partitions holding each vertex, as a
// dense bitset: k bits per vertex. This is exactly the "global status table"
// the paper identifies as the scalability bottleneck of heuristic-based
// streaming partitioners; its size is the dominant term of their memory
// cost.
type ReplicaSets struct {
	k     int
	words int
	bits  []uint64
}

// NewReplicaSets returns an empty table for n vertices and k partitions.
func NewReplicaSets(n, k int) *ReplicaSets {
	r := &ReplicaSets{}
	r.Reset(n, k)
	return r
}

// NewReplicaSetsFromWords adopts a raw word slice as a replica table: words
// must hold exactly n*((k+63)/64) entries laid out vertex-major, and no bit
// above partition k-1 may be set in any vertex's top word (such a bit names
// a partition that does not exist - in a decoded file it means corruption,
// never a graph). The slice is adopted, not copied; the caller must not
// touch it afterwards. This is the load path of the result-file codec
// (store.ReadResult), which decodes the words from the verified file buffer
// and hands them over.
func NewReplicaSetsFromWords(n, k int, words []uint64) (*ReplicaSets, error) {
	if n < 0 || k < 1 {
		return nil, fmt.Errorf("metrics: invalid geometry %d vertices, %d partitions", n, k)
	}
	perVertex := (k + 63) / 64
	if len(words) != n*perVertex {
		return nil, fmt.Errorf("metrics: %d words for %d vertices x %d partitions (want %d)",
			len(words), n, k, n*perVertex)
	}
	r := &ReplicaSets{k: k, words: perVertex, bits: words}
	if err := r.CheckBits(); err != nil {
		return nil, err
	}
	return r, nil
}

// CheckBits reports a bit above partition k-1 in any vertex's top word.
// Add sets such a bit for a partition id >= k without complaint, so a
// table built in memory is checked before it is saved, with the same rule
// and message as a decoded one.
func (r *ReplicaSets) CheckBits() error {
	top := r.k % 64
	if top == 0 {
		return nil
	}
	stray := ^uint64(0) << uint(top)
	for v, i := 0, r.words-1; i < len(r.bits); v, i = v+1, i+r.words {
		if r.bits[i]&stray != 0 {
			return fmt.Errorf("metrics: vertex %d has replica bits above partition %d-1", v, r.k)
		}
	}
	return nil
}

// NumVertices returns the number of vertices the table covers.
func (r *ReplicaSets) NumVertices() int {
	if r.words == 0 {
		return 0
	}
	return len(r.bits) / r.words
}

// Reset clears the table and resizes it for n vertices and k partitions,
// reusing the existing bit storage when it is large enough. It is the
// scratch-reuse entry point: a partitioner that keeps one ReplicaSets
// across runs allocates its bitset once instead of once per run.
func (r *ReplicaSets) Reset(n, k int) {
	words := (k + 63) / 64
	need := n * words
	if cap(r.bits) < need {
		r.bits = make([]uint64, need)
	} else {
		r.bits = r.bits[:need]
		clear(r.bits)
	}
	r.k = k
	r.words = words
}

// K returns the number of partitions.
func (r *ReplicaSets) K() int { return r.k }

// Add records that partition p holds vertex v.
func (r *ReplicaSets) Add(v graph.VertexID, p int) {
	r.bits[int(v)*r.words+p/64] |= 1 << uint(p%64)
}

// Has reports whether partition p holds vertex v.
func (r *ReplicaSets) Has(v graph.VertexID, p int) bool {
	return r.bits[int(v)*r.words+p/64]&(1<<uint(p%64)) != 0
}

// Word returns the w-th 64-bit word of v's partition set (partitions
// 64w..64w+63). Scoring loops that scan all k partitions per edge (HDRF)
// load each word once instead of calling Has k times.
func (r *ReplicaSets) Word(v graph.VertexID, w int) uint64 {
	return r.bits[int(v)*r.words+w]
}

// Words returns the number of 64-bit words per vertex, (k+63)/64.
func (r *ReplicaSets) Words() int { return r.words }

// Count returns |P(v)|.
func (r *ReplicaSets) Count(v graph.VertexID) int {
	n := 0
	for _, w := range r.bits[int(v)*r.words : (int(v)+1)*r.words] {
		n += bits.OnesCount64(w)
	}
	return n
}

// Partitions appends the partitions holding v to dst and returns it. With
// dst capacity >= k the call is allocation-free; partitioners pass the same
// scratch slice every edge.
func (r *ReplicaSets) Partitions(v graph.VertexID, dst []int32) []int32 {
	base := int(v) * r.words
	for w := 0; w < r.words; w++ {
		word := r.bits[base+w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, int32(w*64+b))
			word &= word - 1
		}
	}
	return dst
}

// Intersect appends the partitions holding both u and v to dst.
func (r *ReplicaSets) Intersect(u, v graph.VertexID, dst []int32) []int32 {
	bu := int(u) * r.words
	bv := int(v) * r.words
	for w := 0; w < r.words; w++ {
		word := r.bits[bu+w] & r.bits[bv+w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, int32(w*64+b))
			word &= word - 1
		}
	}
	return dst
}

// Union appends the partitions holding u or v to dst.
func (r *ReplicaSets) Union(u, v graph.VertexID, dst []int32) []int32 {
	bu := int(u) * r.words
	bv := int(v) * r.words
	for w := 0; w < r.words; w++ {
		word := r.bits[bu+w] | r.bits[bv+w]
		for word != 0 {
			b := bits.TrailingZeros64(word)
			dst = append(dst, int32(w*64+b))
			word &= word - 1
		}
	}
	return dst
}

// Bytes returns the memory footprint of the table (its capacity).
func (r *ReplicaSets) Bytes() int64 { return int64(cap(r.bits)) * 8 }

// Quality summarises a finished vertex-cut partitioning.
type Quality struct {
	K int
	// ReplicationFactor is (1/|V'|) * sum_v |P(v)| over vertices that occur
	// in at least one edge (vertices absent from the stream cannot be
	// replicated and are excluded, matching how the literature reports RF).
	ReplicationFactor float64
	// RelativeBalance is k * max|p| / |E| (>= 1; 1.0 is perfect).
	RelativeBalance float64
	// Sizes is the number of edges per partition.
	Sizes []int64
	// MaxSize and MinSize are the extreme partition sizes.
	MaxSize, MinSize int64
	// Vertices is the number of distinct vertices seen in the stream.
	Vertices int
	// Replicas is sum_v |P(v)|.
	Replicas int64
}

// Evaluator accumulates a partitioning's quality and its replica table
// P(v) from the committed assignments. It is the one such accumulator
// outside the partitioners: every run's table and sizes come from it.
// Each run gets a fresh table, made when the run first writes it (the
// first Observe, or Finish/Replicas for an empty run), so a multi-pass
// algorithm does not hold an idle O(|V|·k/64) table through the passes
// before it commits anything. After Finish the table is handed over
// (Replicas), so a table a caller keeps is never written again: Observe
// after Finish without a new Begin is an error. The zero value is ready
// to use.
//
// At GOMAXPROCS >= 2 (checked at Begin) the table and size writes run
// behind the caller: Observe checks a run inline, copies it into a fixed
// ring (see applier) and returns, and one applier goroutine applies the
// chunks in order through the same apply loop the inline path runs, so
// both modes leave bit-identical tables and sizes. Begin, Finish,
// Replicas and Evaluate wait for the ring to drain. At GOMAXPROCS 1
// Observe applies inline and allocates nothing. Callers still must not
// call an Evaluator's methods concurrently.
//
// Besides the one-shot Evaluate, an Evaluator accumulates incrementally
// through Begin/Observe/Finish, which is how every partitioning run scores
// its assignment in the same pass that produces it (partition's executor),
// whether or not the assignment is materialized: state stays
// O(|V|·k/64 + k) however many edges stream through Observe.
type Evaluator struct {
	rs    *ReplicaSets
	nv, k int
	sizes []int64
	edges int64
	// open is set by Begin and cleared by Finish: Observe needs a run.
	open bool
	// ahead is whether this run applies on the applier goroutine.
	ahead bool
	// ap is the ring and applier, made at the first Observe ahead.
	ap *applier
}

// The apply ring: applySlots chunks of at most applyChunk edges each,
// 192 KiB in all, so Observe runs at most four chunks ahead of the
// applier (two of the executor's BlockLen commits).
const (
	applySlots = 4
	applyChunk = 4096
)

// applyJob is one ring slot: a chunk of a run copied out of the caller's
// buffers.
type applyJob struct {
	edges  []graph.Edge
	assign []int32
}

// applier is an Evaluator's ring and the state of its applier goroutine.
// The caller takes free slots, fills them and sends them on full; the
// goroutine applies them in order and returns them on free. queued counts
// the slots sent and not yet taken, and running whether a goroutine is
// live; both are guarded by mu, so the goroutine exits exactly when the
// ring is empty and the next queued chunk starts a new one. An Evaluator
// dropped mid-run therefore leaves no goroutine behind.
type applier struct {
	free, full chan *applyJob
	mu         sync.Mutex
	queued     int
	running    bool
	wg         sync.WaitGroup
}

func newApplier() *applier {
	a := &applier{free: make(chan *applyJob, applySlots), full: make(chan *applyJob, applySlots)}
	for range applySlots {
		a.free <- &applyJob{edges: make([]graph.Edge, 0, applyChunk), assign: make([]int32, 0, applyChunk)}
	}
	return a
}

// queue copies a checked run into the ring chunk by chunk, starting the
// applier for rs and sizes when none is running. It blocks only while all
// slots wait to be applied.
func (a *applier) queue(rs *ReplicaSets, sizes []int64, edges []graph.Edge, assign []int32) {
	for len(edges) > 0 {
		n := min(len(edges), applyChunk)
		j := <-a.free
		j.edges = append(j.edges[:0], edges[:n]...)
		j.assign = append(j.assign[:0], assign[:n]...)
		a.full <- j
		a.mu.Lock()
		a.queued++
		if !a.running {
			a.running = true
			a.wg.Add(1)
			go a.run(rs, sizes)
		}
		a.mu.Unlock()
		edges, assign = edges[n:], assign[n:]
	}
}

// run is the applier goroutine: it applies queued chunks in order until
// the ring is empty.
func (a *applier) run(rs *ReplicaSets, sizes []int64) {
	defer a.wg.Done()
	for {
		a.mu.Lock()
		if a.queued == 0 {
			a.running = false
			a.mu.Unlock()
			return
		}
		a.queued--
		a.mu.Unlock()
		j := <-a.full
		apply(rs, sizes, j.edges, j.assign)
		a.free <- j
	}
}

// apply records a checked run: its partition sizes and both endpoints'
// replicas. The inline path and the applier both run it.
func apply(rs *ReplicaSets, sizes []int64, edges []graph.Edge, assign []int32) {
	assign = assign[:len(edges)]
	for i, e := range edges {
		p := assign[i]
		sizes[p]++
		rs.Add(e.Src, int(p))
		rs.Add(e.Dst, int(p))
	}
}

// join waits until every queued chunk is applied and the applier has
// exited, so the table and sizes are the caller's alone.
func (ev *Evaluator) join() {
	if ev.ap != nil {
		ev.ap.wg.Wait()
	}
}

// Begin starts a run over numVertices vertices and k partitions with fresh
// sizes; its replica table is made on first use (see table). The previous
// run's are handed over (Finish's Quality owns the sizes, Replicas the
// table), never reused. The run applies ahead (AppliesAhead) when
// GOMAXPROCS is at least 2.
func (ev *Evaluator) Begin(numVertices, k int) {
	ev.join()
	ev.rs = nil
	ev.nv, ev.k = numVertices, k
	ev.sizes = make([]int64, k)
	ev.edges = 0
	ev.open = true
	ev.ahead = runtime.GOMAXPROCS(0) >= 2
}

// AppliesAhead reports whether the run begun last applies its table and
// size updates on the applier goroutine rather than inside Observe.
func (ev *Evaluator) AppliesAhead() bool { return ev.ahead }

// table returns the run's replica table, making it on first use.
func (ev *Evaluator) table() *ReplicaSets {
	if ev.rs == nil {
		ev.rs = NewReplicaSets(ev.nv, ev.k)
	}
	return ev.rs
}

// Observe accumulates one run of streamed edges with their partition
// assignments (assign[i] is the partition of edges[i]). The caller may
// reuse both slices as soon as it returns. A run with an invalid
// partition is applied up to that edge and fails with the edge's index
// counted from Begin.
func (ev *Evaluator) Observe(edges []graph.Edge, assign []int32) error {
	if len(edges) != len(assign) {
		return fmt.Errorf("metrics: observed %d edges with %d assignments", len(edges), len(assign))
	}
	if !ev.open {
		return errors.New("metrics: Observe outside a run: call Begin first (a finished run's table and sizes are handed over)")
	}
	n, k := len(assign), ev.k
	var err error
	for i, p := range assign {
		if p < 0 || int(p) >= k {
			n = i
			err = fmt.Errorf("metrics: edge %d assigned to invalid partition %d (k=%d)", ev.edges+int64(i), p, k)
			break
		}
	}
	rs := ev.table()
	if ev.ahead {
		if ev.ap == nil {
			ev.ap = newApplier()
		}
		ev.ap.queue(rs, ev.sizes, edges[:n], assign[:n])
	} else {
		apply(rs, ev.sizes, edges[:n], assign[:n])
	}
	if err != nil {
		return err
	}
	ev.edges += int64(n)
	return nil
}

// Finish summarises everything observed since Begin and ends the run. A
// vertex counts as seen iff its replica set is non-empty: every observed
// edge adds both endpoints, so isolated vertices are exactly those with
// no replica.
func (ev *Evaluator) Finish() *Quality {
	ev.join()
	ev.open = false
	q := &Quality{K: ev.k, Sizes: ev.sizes, MinSize: int64(^uint64(0) >> 1)}
	for _, sz := range ev.sizes {
		if sz > q.MaxSize {
			q.MaxSize = sz
		}
		if sz < q.MinSize {
			q.MinSize = sz
		}
	}
	rs := ev.table()
	for v := range rs.NumVertices() {
		if c := rs.Count(graph.VertexID(v)); c > 0 {
			q.Vertices++
			q.Replicas += int64(c)
		}
	}
	if q.Vertices > 0 {
		q.ReplicationFactor = float64(q.Replicas) / float64(q.Vertices)
	}
	if ev.edges > 0 {
		q.RelativeBalance = float64(ev.k) * float64(q.MaxSize) / float64(ev.edges)
	}
	return q
}

// Replicas returns the replica table accumulated since Begin (an empty
// table of the run's shape if nothing was observed). Once Finish has run
// the table is the caller's: the next Begin drops it, and Observe refuses
// to write it without that Begin.
func (ev *Evaluator) Replicas() *ReplicaSets {
	ev.join()
	return ev.table()
}

// Evaluate recomputes partition quality from scratch given the edge stream
// and the per-edge partition assignment (ground truth, independent of any
// partitioner-internal bookkeeping), consuming the source block by block.
func (ev *Evaluator) Evaluate(src stream.Source, assign []int32, k int) (*Quality, error) {
	if k < 1 {
		return nil, fmt.Errorf("metrics: k must be >= 1, got %d", k)
	}
	if src.Len() != len(assign) {
		return nil, fmt.Errorf("metrics: %d edges but %d assignments", src.Len(), len(assign))
	}
	ev.Begin(src.NumVertices(), k)
	err := stream.ForEach(src, func(off int, blk []graph.Edge) error {
		return ev.Observe(blk, assign[off:off+len(blk)])
	})
	if err != nil {
		return nil, err
	}
	return ev.Finish(), nil
}

// Evaluate is the one-shot form of Evaluator.Evaluate.
func Evaluate(src stream.Source, assign []int32, k int) (*Quality, error) {
	var ev Evaluator
	return ev.Evaluate(src, assign, k)
}
