package stream

import (
	"fmt"
	"io"

	"repro/internal/graph"
)

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
func Retry(src Source, cfg RetryConfig) Source {
	if cfg.MaxAttempts <= 0 {
		cfg.MaxAttempts = 3
	}
	return &RetrySource{base: src, cfg: cfg}
}

// RetrySource is the Source returned by Retry. It carries one cursor like
// any Source.
type RetrySource struct {
	base Source
	cfg  RetryConfig

	pos      int   // edges delivered since the last consumer-visible Reset
	replay   int   // edges still to skip while re-approaching pos
	attempts int   // failed attempts at the current position
	fired    int64 // retry attempts fired over the wrapper's life
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
		s.fired++
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
		s.fired++
		for {
			rerr := s.base.Reset()
			if rerr == nil {
				break
			}
			if !s.retryable(rerr) || s.attempts >= s.cfg.MaxAttempts-1 {
				return nil, rerr
			}
			s.attempts++
			s.fired++
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

// DecodesAhead forwards the wrapped source's report of whether it decodes
// ahead of its consumer (store's file sources do); false for any other.
func (s *RetrySource) DecodesAhead() bool {
	a, ok := s.base.(interface{ DecodesAhead() bool })
	return ok && a.DecodesAhead()
}

// RetryAttempts returns how many retry attempts the wrapper has fired, each
// one a fault survived by a replay; a run over healthy media reads 0.
func (s *RetrySource) RetryAttempts() int64 { return s.fired }

// Close closes the underlying source when it holds resources (file
// sources do); in-memory sources make it a no-op.
func (s *RetrySource) Close() error {
	if c, ok := s.base.(io.Closer); ok {
		return c.Close()
	}
	return nil
}
