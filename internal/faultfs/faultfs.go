// Package faultfs injects deterministic I/O faults beneath the store.File
// interface. An Injector wraps any io.ReaderAt and fires a seeded, scripted
// plan of faults - transient errors, short reads, persistent bit flips,
// truncation - against the reads that cross each fault's byte offset, while
// store.OpenReaderAt turns the injected view back into an ordinary graph
// source. Nothing above the ReaderAt seam knows faults exist, so every
// conformance, bit-equivalence and partitioning test in the repository can
// run unchanged over a faulty "disk" and assert the robustness contract:
// transient faults are survivable (stream.Retry replays through them
// bit-identically), persistent corruption is always detected (the CGR3
// checksums reject it), and neither is ever silently absorbed into wrong
// edges.
//
// Fault plans are plain data and fully deterministic: the same plan over the
// same bytes produces the same fault sequence on every run, which is what
// lets bit-equivalence matrices run under injection.
package faultfs

import (
	"errors"
	"io"
	"os"
	"sync"

	"repro/internal/store"
	"repro/internal/xrand"
)

// ErrInjected is the error every injected transient fault carries. Retry
// policies match it with errors.Is; it wraps nothing, so real I/O errors
// never alias it.
var ErrInjected = errors.New("faultfs: injected transient I/O error")

// Kind selects what a Fault does to the reads that cross its offset.
type Kind int

const (
	// TransientError fails the covering read with ErrInjected and no data,
	// then heals: Count firings later the same read succeeds. Models EINTR,
	// NFS hiccups, device resets.
	TransientError Kind = iota
	// ShortRead delivers the bytes up to and including Off but no further,
	// returning the short count with ErrInjected (the io.ReaderAt contract
	// requires an error with a short read). Well-behaved callers loop or
	// treat it as transient; either way no byte is wrong.
	ShortRead
	// BitFlip persistently XORs bit Bit of the byte at Off in every read
	// that covers it. Models at-rest corruption; checksums must catch it.
	BitFlip
	// Truncate makes the file appear to end at Off: reads at or past Off
	// see io.EOF, reads crossing it come back short. Models torn writes.
	Truncate
)

// Fault is one scripted fault. Off anchors it to a byte offset; Skip is the
// number of covering reads to let pass unharmed before it first fires (so a
// transient can hit mid-stream rather than at open); Count is how many times
// it fires (0 means once for TransientError/ShortRead; BitFlip and Truncate
// are persistent and ignore it). Bit is the bit index for BitFlip.
type Fault struct {
	Kind  Kind
	Off   int64
	Skip  int
	Count int
	Bit   uint8
}

// Stats counts what an Injector actually did - tests assert faults fired, so
// a green run can never mean "the plan missed every read".
type Stats struct {
	Reads           int64
	TransientErrors int64
	ShortReads      int64
	FlippedReads    int64
	TruncatedReads  int64
}

// Injector is an io.ReaderAt that applies a fault plan to an underlying
// reader. It is safe for concurrent ReadAt calls (the source backends and
// integrity verification share one reader across goroutines).
type Injector struct {
	r  io.ReaderAt
	mu sync.Mutex
	// faults holds the remaining plan; fired-out transients stay with
	// Count==0 so Stats and plan order remain stable.
	faults []Fault
	stats  Stats
}

// Wrap returns an Injector applying faults to r. The plan is copied; the
// caller may reuse the slice.
func Wrap(r io.ReaderAt, faults ...Fault) *Injector {
	inj := &Injector{r: r, faults: make([]Fault, len(faults))}
	copy(inj.faults, faults)
	for i := range inj.faults {
		f := &inj.faults[i]
		if f.Count == 0 && (f.Kind == TransientError || f.Kind == ShortRead) {
			f.Count = 1
		}
	}
	return inj
}

// Stats returns a snapshot of what has fired so far.
func (inj *Injector) Stats() Stats {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.stats
}

// ReadAt implements io.ReaderAt under the fault plan. At most one transient
// or short-read fault fires per call (the first armed one in plan order);
// bit flips and truncation apply to every covering read.
func (inj *Injector) ReadAt(p []byte, off int64) (int, error) {
	inj.mu.Lock()
	inj.stats.Reads++

	// Truncation first: it redefines where the file ends.
	limit := int64(-1)
	for i := range inj.faults {
		f := &inj.faults[i]
		if f.Kind == Truncate && (limit < 0 || f.Off < limit) {
			limit = f.Off
		}
	}
	if limit >= 0 && off >= limit {
		inj.stats.TruncatedReads++
		inj.mu.Unlock()
		return 0, io.EOF
	}
	want := len(p)
	if limit >= 0 && off+int64(want) > limit {
		inj.stats.TruncatedReads++
		want = int(limit - off)
	}

	// One armed transient or short read, in plan order.
	var short int64 = -1
	for i := range inj.faults {
		f := &inj.faults[i]
		if f.Count <= 0 || f.Off < off || f.Off >= off+int64(want) {
			continue
		}
		switch f.Kind {
		case TransientError:
			if f.Skip > 0 {
				f.Skip--
				continue
			}
			f.Count--
			inj.stats.TransientErrors++
			inj.mu.Unlock()
			return 0, ErrInjected
		case ShortRead:
			if f.Skip > 0 {
				f.Skip--
				continue
			}
			f.Count--
			inj.stats.ShortReads++
			short = f.Off - off + 1
		}
		if short >= 0 {
			break
		}
	}
	if short >= 0 && short < int64(want) {
		want = int(short)
	}
	inj.mu.Unlock()

	n, err := inj.r.ReadAt(p[:want], off)

	inj.mu.Lock()
	for i := range inj.faults {
		f := &inj.faults[i]
		if f.Kind == BitFlip && f.Off >= off && f.Off < off+int64(n) {
			p[f.Off-off] ^= 1 << (f.Bit & 7)
			inj.stats.FlippedReads++
		}
	}
	inj.mu.Unlock()

	if err != nil {
		return n, err
	}
	if n < len(p) {
		// A clean underlying read that we shortened (short-read or
		// truncation fault) still owes the caller a non-nil error.
		if short >= 0 {
			return n, ErrInjected
		}
		return n, io.EOF
	}
	return n, nil
}

// TransientPlan builds a deterministic plan of n TransientError faults at
// seeded pseudorandom offsets in [0, size), with small skips so some fire on
// first touch and others partway through a pass. The same seed and size
// always produce the same plan.
func TransientPlan(seed uint64, size int64, n int) []Fault {
	rng := xrand.New(seed)
	plan := make([]Fault, n)
	for i := range plan {
		plan[i] = Fault{
			Kind: TransientError,
			Off:  int64(rng.Uint64n(uint64(size))),
			Skip: int(rng.Uint64n(3)),
		}
	}
	return plan
}

// File is a graph source streaming through a fault plan: store.OpenReaderAt
// over an Injector over the file's bytes. It satisfies store.File, so it
// drops into any test matrix in place of store.OpenMmap.
type File struct {
	*store.ReaderAtSource
	inj *Injector
	f   *os.File
}

var _ store.File = (*File)(nil)

// Open opens path as a graph source whose every read passes through the
// fault plan - including the checkpoint index scan and the integrity
// verification reads, so checksums are checked against what the faulty
// "disk" returns, not against a pristine buffer.
func Open(path string, faults ...Fault) (*File, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	inj := Wrap(f, faults...)
	src, err := store.OpenReaderAt(inj, fi.Size(), path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &File{ReaderAtSource: src, inj: inj, f: f}, nil
}

// Injector exposes the fault state so tests can assert what fired.
func (f *File) Injector() *Injector { return f.inj }

// Close releases the source and the underlying file. Idempotent.
func (f *File) Close() error {
	f.ReaderAtSource.Close()
	return f.f.Close()
}
