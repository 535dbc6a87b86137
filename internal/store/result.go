package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
	"repro/internal/metrics"
)

// Result is the serializable core of a finished vertex-cut partitioning:
// everything a lookup service needs to answer vertex->partition,
// edge-routing and replica-set queries without re-running the partitioner.
// It deliberately omits the O(|E|) per-edge assignment - the replica table
// plus the per-partition sizes determine every query answer - so a saved
// result is O(|V|*k/64 + k) bytes however large the edge stream was.
type Result struct {
	// Algorithm and Order record how the partitioning was produced
	// (bookkeeping for operators; queries do not depend on them).
	Algorithm string
	Order     string
	// K is the partition count; NumVertices the vertex-id space.
	K           int
	NumVertices int
	// NumEdges is the number of edges partitioned; Sizes[p] counts the
	// edges placed in partition p and sums to NumEdges (every edge lands in
	// exactly one partition under the vertex-cut model).
	NumEdges int64
	Sizes    []int64
	// Replicas is P(v) for every vertex: the word-addressable bitset the
	// serving hot path reads.
	Replicas *metrics.ReplicaSets
}

// Result-file limits. Vertex and edge counts share the graph-file bounds
// (checkCounts); the partition count gets its own cap - partition ids
// travel as int32 everywhere in this repository, and a million partitions
// is already far past any deployment, so a bigger k in a header is a forgery
// rather than a configuration.
const (
	maxResultK      = 1 << 20
	maxResultString = 255
)

// ErrBadResultMagic reports that the input is not a result file.
var ErrBadResultMagic = errors.New("store: bad magic (not a CPR2 result file)")

// resultMagic2 tags result files ("CPR" for Compressed Partition Result);
// the body is followed by the shared integrity trailer (see integrity.go).
var resultMagic2 = [4]byte{'C', 'P', 'R', '2'}

// SniffResultHeader reports whether head (at least 4 bytes) carries the
// result-file magic.
func SniffResultHeader(head []byte) bool {
	return len(head) >= 4 && [4]byte(head[:4]) == resultMagic2
}

// Verify re-checks the result's internal consistency - geometry, size sums,
// replica-table agreement - the same invariants ReadResult enforces while
// decoding. The on-disk checksums are proven during ReadResult itself (the
// trailer and every payload block, before any field is decoded), so a
// successfully decoded Result is already bit-certified; Verify guards
// results assembled or mutated in memory.
func (r *Result) Verify() error {
	return validateResult(r)
}

// WriteResult encodes a finished partitioning to w:
//
//	magic "CPR2" | uvarint nv | uvarint ne | uvarint k |
//	uvarint len(algorithm) | algorithm | uvarint len(order) | order |
//	k x uvarint size | nv*((k+63)/64) x uvarint replica word |
//	integrity trailer + footer (CRC32C per payload block; see integrity.go)
//
// All integers are unsigned varints; replica words compress well because
// only the low bits (small partition ids) are typically set. Encoding is
// canonical - WriteResult(ReadResult(f)) reproduces f bit for bit - which
// FuzzReadResult holds as the round-trip invariant.
func WriteResult(w io.Writer, r *Result) error {
	if err := validateResult(r); err != nil {
		return err
	}
	cw := newCRCWriter(w)
	if err := writeResultPayload(cw, r); err != nil {
		return err
	}
	return cw.writeTrailer()
}

// writeResultPayload emits magic, header and body - the checksummed span of
// a CPR2 file.
func writeResultPayload(w io.Writer, r *Result) error {
	vw := &varintWriter{bw: bufio.NewWriterSize(w, 1<<16)}
	if _, err := vw.bw.Write(resultMagic2[:]); err != nil {
		return err
	}
	for _, x := range []uint64{uint64(r.NumVertices), uint64(r.NumEdges), uint64(r.K)} {
		if err := vw.uvarint(x); err != nil {
			return err
		}
	}
	for _, s := range []string{r.Algorithm, r.Order} {
		if err := vw.uvarint(uint64(len(s))); err != nil {
			return err
		}
		if _, err := vw.bw.WriteString(s); err != nil {
			return err
		}
	}
	for _, sz := range r.Sizes {
		if err := vw.uvarint(uint64(sz)); err != nil {
			return err
		}
	}
	words := r.Replicas.Words()
	for v := 0; v < r.NumVertices; v++ {
		for wd := 0; wd < words; wd++ {
			if err := vw.uvarint(r.Replicas.Word(graph.VertexID(v), wd)); err != nil {
				return err
			}
		}
	}
	return vw.bw.Flush()
}

// validateResult rejects inconsistent in-memory results before they reach
// disk, mirroring what ReadResult enforces on the way back in.
func validateResult(r *Result) error {
	if r.K < 1 || r.K > maxResultK {
		return fmt.Errorf("store: result k %d out of range [1, %d]", r.K, maxResultK)
	}
	if len(r.Algorithm) > maxResultString || len(r.Order) > maxResultString {
		return fmt.Errorf("store: result algorithm/order names exceed %d bytes", maxResultString)
	}
	if r.NumVertices < 0 || r.NumEdges < 0 {
		return fmt.Errorf("store: negative result counts (%d vertices, %d edges)", r.NumVertices, r.NumEdges)
	}
	if len(r.Sizes) != r.K {
		return fmt.Errorf("store: result has %d sizes for k=%d", len(r.Sizes), r.K)
	}
	var sum int64
	for p, sz := range r.Sizes {
		if sz < 0 {
			return fmt.Errorf("store: partition %d has negative size %d", p, sz)
		}
		sum += sz
	}
	if sum != r.NumEdges {
		return fmt.Errorf("store: partition sizes sum to %d, result declares %d edges", sum, r.NumEdges)
	}
	if r.Replicas == nil {
		return errors.New("store: result has no replica table")
	}
	if r.Replicas.K() != r.K || r.Replicas.NumVertices() != r.NumVertices {
		return fmt.Errorf("store: replica table geometry %dv/%dk disagrees with result %dv/%dk",
			r.Replicas.NumVertices(), r.Replicas.K(), r.NumVertices, r.K)
	}
	return nil
}

// ReadResult decodes a result file written by WriteResult, validating every
// field before anything is sized from it: forged vertex/edge/partition
// counts, truncated bodies, stray replica bits above k and trailing bytes
// all reject. The allocation for the replica table grows incrementally under
// a cap, so an adversarial header cannot force a giant up-front allocation.
//
// The file is buffered and its trailer and every payload block proven
// before any field is decoded, so a corrupt result can never be mistaken
// for a valid one.
func ReadResult(rd io.Reader) (*Result, error) {
	br := bufio.NewReaderSize(rd, 1<<16)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("store: reading result magic: %w", err)
	}
	if m != resultMagic2 {
		return nil, ErrBadResultMagic
	}
	rest, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("store: buffering result: %w", err)
	}
	data := make([]byte, 0, 4+len(rest))
	data = append(append(data, m[:]...), rest...)
	payload, err := verifyAllBytes(data, "result")
	if err != nil {
		return nil, err
	}
	return readResultBody(bufio.NewReader(bytes.NewReader(payload[4:])))
}

// readResultBody decodes everything after the magic; the reader must end
// exactly where the payload does.
func readResultBody(br *bufio.Reader) (*Result, error) {
	nv, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: result vertex count: %w", err)
	}
	ne, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: result edge count: %w", err)
	}
	if err := checkCounts(nv, ne); err != nil {
		return nil, err
	}
	k64, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("store: result partition count: %w", err)
	}
	if k64 < 1 || k64 > maxResultK {
		return nil, fmt.Errorf("store: result k %d out of range [1, %d]", k64, maxResultK)
	}
	k := int(k64)
	r := &Result{K: k, NumVertices: int(nv), NumEdges: int64(ne)}
	if r.Algorithm, err = readResultString(br, "algorithm"); err != nil {
		return nil, err
	}
	if r.Order, err = readResultString(br, "order"); err != nil {
		return nil, err
	}
	r.Sizes = make([]int64, k)
	var sum int64
	for p := 0; p < k; p++ {
		sz, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: partition %d size: %w", p, err)
		}
		if sz > ne {
			return nil, fmt.Errorf("store: partition %d size %d exceeds declared %d edges", p, sz, ne)
		}
		r.Sizes[p] = int64(sz)
		sum += int64(sz)
	}
	if sum != r.NumEdges {
		return nil, fmt.Errorf("store: partition sizes sum to %d, header declares %d edges", sum, r.NumEdges)
	}
	perVertex := (k + 63) / 64
	need := int(nv) * perVertex
	capHint := need
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	words := make([]uint64, 0, capHint)
	for i := 0; i < need; i++ {
		w, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("store: replica word %d of %d: %w", i, need, err)
		}
		words = append(words, w)
	}
	rs, err := metrics.NewReplicaSetsFromWords(int(nv), k, words)
	if err != nil {
		return nil, err
	}
	r.Replicas = rs
	// A result file is a complete artifact, not a stream prefix: trailing
	// bytes mean the file was corrupted or concatenated, and accepting them
	// would break the bit-identical round-trip contract.
	if _, err := br.ReadByte(); err != io.EOF {
		if err != nil {
			return nil, fmt.Errorf("store: after result body: %w", err)
		}
		return nil, errors.New("store: trailing data after result body")
	}
	return r, nil
}

// readResultString decodes one length-prefixed name field.
func readResultString(br *bufio.Reader, field string) (string, error) {
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return "", fmt.Errorf("store: result %s length: %w", field, err)
	}
	if n > maxResultString {
		return "", fmt.Errorf("store: result %s of %d bytes exceeds the %d limit", field, n, maxResultString)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(br, buf); err != nil {
		return "", fmt.Errorf("store: result %s: %w", field, err)
	}
	return string(buf), nil
}
