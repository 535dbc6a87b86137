package store

import (
	"runtime"

	"repro/internal/graph"
)

// Decode ahead. A root source (the handle OpenMmap or OpenReaderAt
// returns) whose consumer pulls blocks while GOMAXPROCS >= 2 hands its
// decoder to one goroutine on the first NextBlock of a pass. The goroutine
// runs the same decodeNext loop the inline path runs - decode, prove the
// block's bytes, prove the rest of the file at EOF - into a ring of
// aheadDepth+1 pooled blocks, and the consumer takes the blocks in stream
// order. Segments (CLUGP-D's shard readers) always decode inline; only a
// root handle starts a decode goroutine.
//
// Ownership is strict: while a run is live the goroutine alone touches the
// decoder and the ring blocks it has taken from free; the consumer touches
// only the block it holds. Reset and Close stop the goroutine and wait for
// it to exit before they seek or release anything.

// aheadDepth is how many decoded blocks may wait for the consumer. Two
// keep the decoder busy across an uneven consumer step and hold three
// blocks (192 KiB) per source; with one, clugp -stream -k 256 on a
// 9.6M-edge web graph ran about 5% slower (9 of 10 alternating runs).
const aheadDepth = 2

// aheadBlock is one step of the decode goroutine: a block and the ring
// buffer it lives in, or the error (io.EOF at the end) that ended the run.
type aheadBlock struct {
	buf *[]graph.Edge
	blk []graph.Edge
	err error
}

// aheadRun is one live decode goroutine and the consumer's side of it.
type aheadRun struct {
	full chan aheadBlock    // decoded blocks in stream order
	free chan *[]graph.Edge // ring blocks the consumer has released
	stop chan struct{}      // closed by stopAhead
	done chan struct{}      // closed when the goroutine has exited
	held *[]graph.Edge      // the block the consumer holds (consumer-owned)
	err  error              // the error that ended the run (consumer-owned)
}

// DecodesAhead reports whether a pass over this handle decodes ahead of
// its consumer on a goroutine of its own: true for a root handle (not a
// Segment) while GOMAXPROCS is at least 2.
func (s *segCore) DecodesAhead() bool {
	return s.isRoot && runtime.GOMAXPROCS(0) >= 2
}

// aheadOn reports whether the next block should come from a decode
// goroutine: one is already running, or a pass started now would decode
// ahead. A pass that started inline may switch on mid-stream (the decoder
// state is exact at every block boundary); a running pass stays on until
// Reset or Close.
func (s *segCore) aheadOn() bool {
	return s.run != nil || s.DecodesAhead()
}

// nextAhead is NextBlock's decode-ahead path: it releases the block the
// consumer held and takes the next one in stream order. The error that ends
// a run is returned again on every later call until Reset.
func (s *segCore) nextAhead() ([]graph.Edge, error) {
	r := s.run
	if r == nil {
		r = s.startAhead()
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.held != nil {
		r.free <- r.held
		r.held = nil
	}
	b := <-r.full
	if b.err != nil {
		r.err = b.err
		return nil, b.err
	}
	r.held = b.buf
	s.pos += len(b.blk)
	return b.blk, nil
}

// startAhead hands the decoder, positioned at s.pos, to a new goroutine.
func (s *segCore) startAhead() *aheadRun {
	r := &aheadRun{
		full: make(chan aheadBlock, aheadDepth),
		free: make(chan *[]graph.Edge, len(s.ring)),
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := range s.ring {
		if s.ring[i] == nil {
			s.ring[i] = blockPool.Get().(*[]graph.Edge)
		}
		r.free <- s.ring[i]
	}
	s.run = r
	go s.decodeAhead(r, s.pos)
	return r
}

// decodeAhead is the decode goroutine: decodeNext from edge pos on, one
// block per free ring buffer, until the run ends in an error or EOF or is
// stopped.
func (s *segCore) decodeAhead(r *aheadRun, pos int) {
	defer close(r.done)
	for {
		var buf *[]graph.Edge
		select {
		case buf = <-r.free:
		case <-r.stop:
			return
		}
		blk, err := s.decodeNext(*buf, pos)
		pos += len(blk)
		select {
		case r.full <- aheadBlock{buf: buf, blk: blk, err: err}:
		case <-r.stop:
			return
		}
		if err != nil {
			return
		}
	}
}

// stopAhead stops the decode goroutine, if any, and waits for it to exit;
// the decoder and every ring block are the caller's again.
func (s *segCore) stopAhead() {
	if s.run == nil {
		return
	}
	close(s.run.stop)
	<-s.run.done
	s.run = nil
}
