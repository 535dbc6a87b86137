package metrics

import (
	"encoding/binary"
	"fmt"
)

// This file is the canonical state serialization used by the checkpoint
// subsystem (store's CPK1 format). Every encoding is defined over the
// *logical* state - vertex-major, independent of how the state is stored in
// memory - so a flat table and a sharded table with the same contents
// produce identical bytes, whatever the shard count. That is what lets a
// run checkpointed at one worker configuration resume under another and
// still be bit-identical (shard ranges are contiguous and ordered, so
// walking shards in order walks vertices in order).
//
// All encodings are streams of uvarints except seen-bitmaps, which are raw
// (n+7)/8-byte little-endian bitmaps. Append* appends to buf and returns
// the extended slice; Load* consumes from data and returns the remainder,
// validating every value against the receiver's current geometry (callers
// Reset first, then Load).

// appendUvarint appends x to buf in unsigned varint encoding.
func appendUvarint(buf []byte, x uint64) []byte {
	return binary.AppendUvarint(buf, x)
}

// takeUvarint decodes one uvarint off data.
func takeUvarint(data []byte) (uint64, []byte, error) {
	x, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("metrics: truncated or overlong varint in state")
	}
	return x, data[n:], nil
}

// AppendState appends the table's replica words, vertex-major, one uvarint
// per word.
func (r *ReplicaSets) AppendState(buf []byte) []byte {
	for _, w := range r.bits {
		buf = appendUvarint(buf, w)
	}
	return buf
}

// LoadState fills the table (at its current geometry) from a canonical
// state stream and returns the remainder. Words carrying replica bits above
// partition k-1 are rejected: they name partitions that do not exist, which
// in a checkpoint means corruption or forgery, never a valid run.
func (r *ReplicaSets) LoadState(data []byte) ([]byte, error) {
	var err error
	var w uint64
	for i := range r.bits {
		w, data, err = takeUvarint(data)
		if err != nil {
			return nil, err
		}
		r.bits[i] = w
	}
	if top := r.k % 64; top != 0 && r.words > 0 {
		stray := ^uint64(0) << uint(top)
		n := len(r.bits) / r.words
		for v := 0; v < n; v++ {
			if r.bits[v*r.words+r.words-1]&stray != 0 {
				return nil, fmt.Errorf("metrics: state has replica bits above partition %d-1", r.k)
			}
		}
	}
	return data, nil
}

// AppendState appends the sharded table's replica words in canonical flat
// vertex order: identical bytes to a flat ReplicaSets with the same
// contents, whatever the shard count.
func (s *ShardedReplicaSets) AppendState(buf []byte) []byte {
	for i := range s.tabs {
		buf = s.tabs[i].AppendState(buf)
	}
	return buf
}

// LoadState fills the sharded table (at its current geometry) from a
// canonical flat state stream and returns the remainder.
func (s *ShardedReplicaSets) LoadState(data []byte) ([]byte, error) {
	var err error
	for i := range s.tabs {
		data, err = s.tabs[i].LoadState(data)
		if err != nil {
			return nil, err
		}
	}
	return data, nil
}

// AppendDegreeState appends a flat per-vertex degree table, one uvarint per
// vertex.
func AppendDegreeState(buf []byte, deg []uint32) []byte {
	for _, d := range deg {
		buf = appendUvarint(buf, uint64(d))
	}
	return buf
}

// LoadDegreeState fills deg from a canonical degree stream and returns the
// remainder.
func LoadDegreeState(deg []uint32, data []byte) ([]byte, error) {
	var err error
	var x uint64
	for i := range deg {
		x, data, err = takeUvarint(data)
		if err != nil {
			return nil, err
		}
		if x > 1<<32-1 {
			return nil, fmt.Errorf("metrics: degree %d overflows uint32", x)
		}
		deg[i] = uint32(x)
	}
	return data, nil
}

// appendSeenState appends seen as a raw little-endian bitmap, (n+7)/8 bytes.
func appendSeenState(buf []byte, seen []bool) []byte {
	nb := (len(seen) + 7) / 8
	start := len(buf)
	buf = append(buf, make([]byte, nb)...)
	for v, ok := range seen {
		if ok {
			buf[start+v/8] |= 1 << uint(v%8)
		}
	}
	return buf
}

// loadSeenState fills seen from a raw bitmap and returns the remainder.
func loadSeenState(seen []bool, data []byte) ([]byte, error) {
	nb := (len(seen) + 7) / 8
	if len(data) < nb {
		return nil, fmt.Errorf("metrics: seen bitmap truncated (%d bytes, want %d)", len(data), nb)
	}
	for v := range seen {
		seen[v] = data[v/8]&(1<<uint(v%8)) != 0
	}
	if top := len(seen) % 8; top != 0 && nb > 0 {
		if data[nb-1]>>uint(top) != 0 {
			return nil, fmt.Errorf("metrics: seen bitmap has bits past vertex %d", len(seen)-1)
		}
	}
	return data[nb:], nil
}

// appendSizesState appends k partition sizes, one uvarint each.
func appendSizesState(buf []byte, sizes []int64) []byte {
	for _, sz := range sizes {
		buf = appendUvarint(buf, uint64(sz))
	}
	return buf
}

// loadSizesState fills sizes from a canonical size stream and returns the
// remainder.
func loadSizesState(sizes []int64, data []byte) ([]byte, error) {
	var err error
	var x uint64
	for i := range sizes {
		x, data, err = takeUvarint(data)
		if err != nil {
			return nil, err
		}
		if x > 1<<62 {
			return nil, fmt.Errorf("metrics: partition size %d overflows int64", x)
		}
		sizes[i] = int64(x)
	}
	return data, nil
}

// AppendSizesState and LoadSizesState expose the canonical partition-size
// encoding to the partitioners' own checkpoint sections.
func AppendSizesState(buf []byte, sizes []int64) []byte { return appendSizesState(buf, sizes) }

// LoadSizesState fills sizes from a canonical size stream and returns the
// remainder.
func LoadSizesState(sizes []int64, data []byte) ([]byte, error) {
	return loadSizesState(sizes, data)
}

// AppendState appends the evaluator's accumulated quality state: observed
// edge count, partition sizes, the seen bitmap, and the replica words in
// canonical order. The encoding matches ParallelEvaluator.AppendState for
// the same logical state, so checkpoints interchange between serial and
// parallel quality accounting.
func (ev *Evaluator) AppendState(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(ev.edges))
	buf = appendSizesState(buf, ev.sizes)
	buf = appendSeenState(buf, ev.seen)
	return ev.rs.AppendState(buf)
}

// LoadState restores the evaluator's accumulated state from a canonical
// stream. Call after Begin with the run's geometry; the whole stream must
// be consumed.
func (ev *Evaluator) LoadState(data []byte) error {
	edges, data, err := takeUvarint(data)
	if err != nil {
		return err
	}
	ev.edges = int64(edges)
	if data, err = loadSizesState(ev.sizes, data); err != nil {
		return err
	}
	if data, err = loadSeenState(ev.seen, data); err != nil {
		return err
	}
	if data, err = ev.rs.LoadState(data); err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("metrics: %d trailing bytes after evaluator state", len(data))
	}
	return nil
}

// AppendState appends the parallel evaluator's accumulated quality state in
// the same canonical encoding as Evaluator.AppendState (shards walk in
// vertex order), so the two interchange.
func (ev *ParallelEvaluator) AppendState(buf []byte) []byte {
	buf = appendUvarint(buf, uint64(ev.edges))
	buf = appendSizesState(buf, ev.sizes)
	buf = appendSeenState(buf, ev.seen)
	return ev.rs.AppendState(buf)
}

// LoadState restores the parallel evaluator's accumulated state from a
// canonical stream. Call between Begin and the first Observe: the shard
// workers idle on their input channels until a batch arrives, and the
// channel send orders this restore before any worker read.
func (ev *ParallelEvaluator) LoadState(data []byte) error {
	edges, data, err := takeUvarint(data)
	if err != nil {
		return err
	}
	ev.edges = int64(edges)
	if data, err = loadSizesState(ev.sizes, data); err != nil {
		return err
	}
	if data, err = loadSeenState(ev.seen, data); err != nil {
		return err
	}
	if data, err = ev.rs.LoadState(data); err != nil {
		return err
	}
	if len(data) != 0 {
		return fmt.Errorf("metrics: %d trailing bytes after evaluator state", len(data))
	}
	return nil
}
