package stream

import (
	"fmt"
	"io"
	"runtime"
	"sync"

	"repro/internal/graph"
)

// ParallelConfig sizes a parallel decode pipeline. The zero value selects
// the defaults noted on each field; every knob affects scheduling and
// prefetch only, never which edges appear in which position - the stream a
// ParallelSource delivers is a pure function of the base stream.
type ParallelConfig struct {
	// Workers is the number of decode goroutines (default GOMAXPROCS,
	// clamped to the segment count - tiny streams spawn fewer).
	Workers int
	// BatchEdges is the batch granularity: the stream is cut into
	// fixed-size batches of this many edges (the last one short), and each
	// NextBlock returns exactly one batch. Batch b always covers edges
	// [b*BatchEdges, (b+1)*BatchEdges) regardless of the worker count,
	// which is what makes downstream per-edge algorithms see a bit-identical
	// stream however many workers decode it. Default BlockLen.
	BatchEdges int
	// SegmentBatches is the scheduling unit: workers claim runs of this
	// many consecutive batches, each opened as one base Segment (one
	// checkpoint seek + roll-forward), so larger values amortize
	// segment-open cost and smaller values spread tail work. Default 8.
	SegmentBatches int
	// Depth is the per-worker prefetch bound in batches: a worker may run
	// at most Depth undelivered batches ahead of the commit frontier, so
	// pipeline memory is Workers*Depth*BatchEdges edges. Default 4.
	Depth int
}

func (c ParallelConfig) withDefaults() ParallelConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.BatchEdges <= 0 {
		c.BatchEdges = BlockLen
	}
	if c.SegmentBatches <= 0 {
		c.SegmentBatches = 8
	}
	if c.Depth <= 0 {
		c.Depth = 4
	}
	return c
}

// parcel is one decoded batch in flight from a worker to the consumer, or
// the error that ended the worker's segment.
type parcel struct {
	buf []graph.Edge
	err error
}

// ParallelSource decodes a segmentable stream with a pool of workers while
// delivering its edges in exact stream order - the decode stage of the
// parallel hot pass. The stream is cut into fixed-size batches (ParallelConfig
// .BatchEdges); segments of consecutive batches are statically round-robined
// across workers, each worker decodes its segments through its own base
// Segment cursor into recycled batch buffers, and the consumer commits
// batches in global order by draining each batch from its owner's channel.
// Per-worker channels make the segment-ordered merge free: a worker's
// batches arrive in order, and the owner of batch b is a pure function of b,
// so no reordering structure is needed and prefetch memory stays bounded at
// Workers*Depth batches.
//
// Like every Source, a ParallelSource is a single-cursor stream and is not
// safe for concurrent consumption; the concurrency is internal. Reset
// stops the current worker fleet and respawns it from edge 0 (multi-pass
// algorithms restream exactly as they do over serial sources). Close
// releases the workers and any segment resources; the base source is not
// closed unless the ParallelSource owns it (nested Segment wrappers do).
type ParallelSource struct {
	base     Segmenter
	ownsBase bool
	cfg      ParallelConfig
	nv, n    int
	nb       int // number of batches
	nseg     int // number of segments

	// bufs persists each worker's Depth batch buffers across respawns so a
	// multi-pass consumer allocates the pipeline once.
	bufs [][][]graph.Edge

	running bool
	stop    chan struct{}
	wg      sync.WaitGroup
	outs    []chan parcel       // worker -> consumer, cap Depth
	free    []chan []graph.Edge // consumer -> worker buffer returns, cap Depth
	closers []io.Closer         // open segment handles of the current run
	mu      sync.Mutex          // guards closers (workers append, stopRun sweeps)

	pos    int          // next batch index to deliver
	held   []graph.Edge // buffer of the last delivered batch, owed to its worker
	err    error
	closed bool
}

// Parallel wraps a segmentable source in a multi-worker decode pipeline.
// The returned source streams exactly the base stream - same edges, same
// order, for any configuration - so any Source consumer gains parallel
// decode by partitioning the wrapper instead of the base. The caller keeps
// ownership of base (Close releases only pipeline resources); the wrapper
// must not be used concurrently with direct consumption of base.
func Parallel(base Segmenter, cfg ParallelConfig) (*ParallelSource, error) {
	return newParallel(base, cfg, false)
}

func newParallel(base Segmenter, cfg ParallelConfig, ownsBase bool) (*ParallelSource, error) {
	cfg = cfg.withDefaults()
	n := base.Len()
	nb := (n + cfg.BatchEdges - 1) / cfg.BatchEdges
	nseg := (nb + cfg.SegmentBatches - 1) / cfg.SegmentBatches
	if cfg.Workers > nseg && nseg > 0 {
		cfg.Workers = nseg
	}
	if nseg == 0 {
		cfg.Workers = 0
	}
	s := &ParallelSource{
		base: base, ownsBase: ownsBase, cfg: cfg,
		nv: base.NumVertices(), n: n, nb: nb, nseg: nseg,
	}
	s.bufs = make([][][]graph.Edge, cfg.Workers)
	for w := range s.bufs {
		s.bufs[w] = make([][]graph.Edge, cfg.Depth)
		for d := range s.bufs[w] {
			s.bufs[w][d] = make([]graph.Edge, 0, cfg.BatchEdges)
		}
	}
	return s, nil
}

// NumVertices implements Source.
func (s *ParallelSource) NumVertices() int { return s.nv }

// Len implements Source.
func (s *ParallelSource) Len() int { return s.n }

// Workers reports the resolved worker count (after segment-count clamping).
func (s *ParallelSource) Workers() int { return s.cfg.Workers }

// batchRange returns the edge range of batch b.
func (s *ParallelSource) batchRange(b int) (lo, hi int) {
	lo = b * s.cfg.BatchEdges
	hi = lo + s.cfg.BatchEdges
	if hi > s.n {
		hi = s.n
	}
	return lo, hi
}

// owner returns the worker that decodes batch b: segments are round-robined
// in order, so ownership is a pure function of the batch index.
func (s *ParallelSource) owner(b int) int {
	return (b / s.cfg.SegmentBatches) % s.cfg.Workers
}

// Reset implements Source: it stops any in-flight fleet and rewinds to the
// first batch. Workers respawn lazily on the next NextBlock, so a
// Reset-then-Close sequence never starts a fleet it immediately kills.
func (s *ParallelSource) Reset() error {
	if s.closed {
		return fmt.Errorf("stream: parallel source is closed")
	}
	s.stopRun()
	s.pos = 0
	s.held = nil
	s.err = nil
	return nil
}

// NextBlock implements Source: it returns the next fixed-size batch, valid
// until the next NextBlock, Reset or Close call.
func (s *ParallelSource) NextBlock() ([]graph.Edge, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, fmt.Errorf("stream: parallel source is closed")
	}
	if s.pos >= s.nb {
		return nil, io.EOF
	}
	if !s.running {
		s.spawn()
	}
	// Return the previous batch's buffer to its owner before taking the
	// next one; each worker circulates exactly Depth buffers, so this send
	// always has capacity.
	if s.held != nil {
		s.free[s.owner(s.pos-1)] <- s.held
		s.held = nil
	}
	p := <-s.outs[s.owner(s.pos)]
	if p.err != nil {
		s.err = p.err
		s.stopRun()
		return nil, s.err
	}
	s.pos++
	s.held = p.buf
	return p.buf, nil
}

// Segment implements Segmenter: the sub-range is opened on the base source
// and wrapped in its own pipeline with the same configuration, so sharded
// consumers (CLUGP-D's per-node ingest) get parallel decode inside each
// shard. The returned source owns the base segment and releases it on Close.
func (s *ParallelSource) Segment(lo, hi int) (Source, error) {
	if s.closed {
		return nil, fmt.Errorf("stream: parallel source is closed")
	}
	sub, err := s.base.Segment(lo, hi)
	if err != nil {
		return nil, err
	}
	seg, ok := sub.(Segmenter)
	if !ok {
		// A base whose segments cannot segment further still streams
		// correctly - just without nested decode parallelism.
		return sub, nil
	}
	return newParallel(seg, s.cfg, true)
}

// Close implements io.Closer: it stops the workers, releases open segment
// handles, and (for wrappers created by Segment) closes the owned base.
// The last delivered block is invalidated.
func (s *ParallelSource) Close() error {
	if s.closed {
		return nil
	}
	s.stopRun()
	s.closed = true
	s.held = nil
	s.bufs = nil
	var err error
	if s.ownsBase {
		if c, ok := s.base.(io.Closer); ok {
			err = c.Close()
		}
	}
	return err
}

// spawn starts one run of the fleet: fresh channels, free lists primed with
// the persistent buffers, one goroutine per worker walking its round-robin
// share of segments.
func (s *ParallelSource) spawn() {
	s.running = true
	s.stop = make(chan struct{})
	s.outs = make([]chan parcel, s.cfg.Workers)
	s.free = make([]chan []graph.Edge, s.cfg.Workers)
	for w := 0; w < s.cfg.Workers; w++ {
		s.outs[w] = make(chan parcel, s.cfg.Depth)
		s.free[w] = make(chan []graph.Edge, s.cfg.Depth)
		for _, buf := range s.bufs[w] {
			s.free[w] <- buf
		}
		s.wg.Add(1)
		go s.worker(w, s.stop, s.outs[w], s.free[w])
	}
}

// stopRun tears down the current fleet: workers unblock via the stop
// channel, joined, and their open segments closed. Buffers survive in
// s.bufs for the next spawn.
func (s *ParallelSource) stopRun() {
	if !s.running {
		return
	}
	close(s.stop)
	s.wg.Wait()
	s.running = false
	s.mu.Lock()
	closers := s.closers
	s.closers = nil
	s.mu.Unlock()
	for _, c := range closers {
		c.Close()
	}
	s.outs, s.free = nil, nil
}

// worker decodes every segment it owns (seg % Workers == w) in increasing
// order, cutting each into fixed-size batches sent in order on out. Errors
// are delivered positionally: the consumer reaches them exactly where the
// stream broke.
func (s *ParallelSource) worker(w int, stop chan struct{}, out chan parcel, free chan []graph.Edge) {
	defer s.wg.Done()
	fail := func(err error) {
		select {
		case out <- parcel{err: err}:
		case <-stop:
		}
	}
	for seg := w; seg < s.nseg; seg += s.cfg.Workers {
		first := seg * s.cfg.SegmentBatches
		last := first + s.cfg.SegmentBatches
		if last > s.nb {
			last = s.nb
		}
		lo, _ := s.batchRange(first)
		_, hi := s.batchRange(last - 1)
		sub, err := s.base.Segment(lo, hi)
		if err != nil {
			fail(err)
			return
		}
		closeSub := func() {}
		if c, ok := sub.(io.Closer); ok {
			// Register the handle so an abandoned run (Reset/Close while
			// this worker is mid-segment) still releases it.
			s.mu.Lock()
			s.closers = append(s.closers, c)
			idx := len(s.closers) - 1
			s.mu.Unlock()
			closeSub = func() {
				s.mu.Lock()
				s.closers[idx] = nopCloser{}
				s.mu.Unlock()
				c.Close()
			}
		}
		if err := sub.Reset(); err != nil {
			fail(err)
			closeSub()
			return
		}
		if !s.decodeSegment(sub, first, last, stop, out, free) {
			closeSub()
			return
		}
		closeSub()
	}
}

// decodeSegment streams sub into batches [first,last) and sends them. It
// reports false when the worker must exit (stop closed or error sent).
func (s *ParallelSource) decodeSegment(sub Source, first, last int, stop chan struct{}, out chan parcel, free chan []graph.Edge) bool {
	var blk []graph.Edge // current run from the segment cursor
	for b := first; b < last; b++ {
		var buf []graph.Edge
		select {
		case buf = <-free:
		case <-stop:
			return false
		}
		lo, hi := s.batchRange(b)
		buf = buf[:0]
		for len(buf) < hi-lo {
			if len(blk) == 0 {
				var err error
				blk, err = sub.NextBlock()
				if err != nil {
					if err == io.EOF {
						err = io.ErrUnexpectedEOF
					}
					select {
					case out <- parcel{err: err}:
					case <-stop:
					}
					return false
				}
			}
			take := hi - lo - len(buf)
			if take > len(blk) {
				take = len(blk)
			}
			buf = append(buf, blk[:take]...)
			blk = blk[take:]
		}
		select {
		case out <- parcel{buf: buf}:
		case <-stop:
			return false
		}
	}
	return true
}

// nopCloser replaces an already-closed segment handle in the cleanup list.
type nopCloser struct{}

func (nopCloser) Close() error { return nil }
