package stream

import (
	"fmt"
	"io"
	"sync/atomic"

	"repro/internal/graph"
)

// RetryStats counts the replay activity of a Retry-wrapped source across
// every cursor sharing it: the top-level wrapper and all its segments bump
// the same counter, so one read covers a whole sharded ingest. Safe for
// concurrent use.
type RetryStats struct {
	attempts atomic.Int64
}

// Attempts returns how many retry attempts have fired (each one a fault
// that was survived by a replay - a green run over healthy media reads 0).
func (s *RetryStats) Attempts() int64 { return s.attempts.Load() }

// RetryConfig tunes a Retry wrapper. A retry replays at once, with no
// sleep between attempts.
type RetryConfig struct {
	// MaxAttempts is how many times the same stream position may be
	// attempted before the error is surfaced (so MaxAttempts-1 retries).
	// Zero or negative means 3. The attempt counter resets whenever the
	// stream delivers new edges, so a long pass tolerates MaxAttempts-1
	// consecutive faults at each position, not in total.
	MaxAttempts int
	// Retryable reports whether an error is worth a replay. nil retries
	// everything except io.EOF; persistent errors (checksum failures,
	// truncation) then simply fail again until attempts run out, which
	// costs MaxAttempts-1 replays but never masks the error.
	Retryable func(error) bool
	// Stats, when non-nil, receives every fired retry attempt. Retry fills
	// in a fresh one when nil, so the counter is always live; segments
	// share their parent's (RetrySource.RetryAttempts reads it).
	Stats *RetryStats
}

// Retry wraps src so that transient NextBlock failures are survived by
// replaying: on a retryable error the wrapper resets the underlying source,
// skips the edges it already delivered, and resumes from the exact next
// edge. Consumers observe the identical edge sequence a fault-free pass
// would deliver - the bit-equivalence contract the fault-injection matrix
// (internal/partition's fault tests) pins down - or the original error once
// attempts are exhausted.
//
// Replaying can split blocks at arbitrary points, so downstream consumers
// must not assume the block granularity of the underlying source; every
// consumer in this repository already iterates ForEach-style, so
// assignments stay bit-deterministic under any fault pattern that Retry
// survives.
//
// If src is a Segmenter, the returned Source is too, and each segment is
// itself Retry-wrapped with the same config.
func Retry(src Source, cfg RetryConfig) Source {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	if cfg.Stats == nil {
		cfg.Stats = &RetryStats{}
	}
	rs := RetrySource{base: src, cfg: cfg}
	if _, ok := src.(Segmenter); ok {
		return &retrySegmenter{RetrySource: rs}
	}
	return &rs
}

// RetrySource is the Source returned by Retry. It carries one cursor like
// any Source; concurrent consumers wrap their own segments.
type RetrySource struct {
	base Source
	cfg  RetryConfig

	pos      int // edges delivered since the last consumer-visible Reset
	replay   int // edges still to skip while re-approaching pos
	attempts int // failed attempts at the current position
}

// NumVertices implements Source.
func (s *RetrySource) NumVertices() int { return s.base.NumVertices() }

// Len implements Source.
func (s *RetrySource) Len() int { return s.base.Len() }

// Reset implements Source, retrying the underlying Reset under the same
// policy as NextBlock.
func (s *RetrySource) Reset() error {
	s.pos, s.replay, s.attempts = 0, 0, 0
	for {
		err := s.base.Reset()
		if err == nil {
			return nil
		}
		if !s.retryable(err) || s.attempts >= s.cfg.MaxAttempts-1 {
			return err
		}
		s.attempts++
		s.cfg.Stats.attempts.Add(1)
	}
}

// NextBlock implements Source. On a retryable error it resets the
// underlying source and replays forward to the first undelivered edge; the
// block that resumes delivery may therefore start mid-way through one of the
// underlying source's blocks.
func (s *RetrySource) NextBlock() ([]graph.Edge, error) {
	for {
		blk, err := s.base.NextBlock()
		if err == nil {
			if s.replay > 0 {
				if len(blk) <= s.replay {
					s.replay -= len(blk)
					continue
				}
				blk = blk[s.replay:]
				s.replay = 0
			}
			s.pos += len(blk)
			s.attempts = 0
			return blk, nil
		}
		if err == io.EOF {
			if s.replay > 0 {
				// The replayed stream ended before reaching edges it
				// delivered on an earlier attempt: the source shrank
				// under us, which no retry can make consistent.
				return nil, fmt.Errorf("stream: source ended %d edges short of its replay position", s.replay)
			}
			return nil, io.EOF
		}
		if !s.retryable(err) || s.attempts >= s.cfg.MaxAttempts-1 {
			return nil, err
		}
		s.attempts++
		s.cfg.Stats.attempts.Add(1)
		for {
			rerr := s.base.Reset()
			if rerr == nil {
				break
			}
			if !s.retryable(rerr) || s.attempts >= s.cfg.MaxAttempts-1 {
				return nil, rerr
			}
			s.attempts++
			s.cfg.Stats.attempts.Add(1)
		}
		s.replay = s.pos
	}
}

func (s *RetrySource) retryable(err error) bool {
	if err == io.EOF {
		return false
	}
	if s.cfg.Retryable != nil {
		return s.cfg.Retryable(err)
	}
	return true
}

// retrySegmenter adds Segment to RetrySource when the base supports it, so
// segment consumers - CLUGP-D's sharded ingest - keep their fast path
// under fault injection.
type retrySegmenter struct{ RetrySource }

// Segment implements Segmenter: the underlying segment gets its own Retry
// wrapper (retry state is per-cursor) with the same config. Creating a
// segment reads the source too (checkpoint-index scan, roll-forward to lo),
// so the creation itself is retried under the same policy.
func (s *retrySegmenter) Segment(lo, hi int) (Source, error) {
	attempts := 0
	for {
		seg, err := s.base.(Segmenter).Segment(lo, hi)
		if err == nil {
			return Retry(seg, s.cfg), nil
		}
		if !s.retryable(err) || attempts >= s.cfg.MaxAttempts-1 {
			return nil, err
		}
		attempts++
		s.cfg.Stats.attempts.Add(1)
	}
}

// DecodesAhead forwards the wrapped source's report of whether it decodes
// ahead of its consumer (store's file sources do); false for any other.
func (s *RetrySource) DecodesAhead() bool {
	a, ok := s.base.(interface{ DecodesAhead() bool })
	return ok && a.DecodesAhead()
}

// RetryAttempts returns the total retry attempts fired by this source and
// every segment derived from it (they share the config's RetryStats).
func (s *RetrySource) RetryAttempts() int64 { return s.cfg.Stats.Attempts() }

// Close closes the underlying source when it holds resources (file-backed
// segments do); in-memory sources make it a no-op.
func (s *RetrySource) Close() error {
	if c, ok := s.base.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
