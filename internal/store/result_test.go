package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/xrand"
)

// buildResult assembles a small hand-checked result: 6 vertices, k
// partitions, an uneven size split and a few replicas per vertex.
func buildResult(t testing.TB, k int) *Result {
	t.Helper()
	n := 6
	rs := metrics.NewReplicaSets(n, k)
	rs.Add(0, 0)
	rs.Add(0, k-1)
	rs.Add(1, k/2)
	rs.Add(3, 0)
	if k > 1 {
		rs.Add(3, 1)
	}
	rs.Add(3, k-1)
	sizes := make([]int64, k)
	sizes[0] = 7
	sizes[k-1] = 3
	var ne int64
	for _, s := range sizes {
		ne += s
	}
	return &Result{
		Algorithm:   "HDRF",
		Order:       "random",
		K:           k,
		NumVertices: n,
		NumEdges:    ne,
		Sizes:       sizes,
		Replicas:    rs,
	}
}

func encodeResult(t testing.TB, r *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteResult(&buf, r); err != nil {
		t.Fatalf("WriteResult: %v", err)
	}
	return buf.Bytes()
}

func TestResultRoundTrip(t *testing.T) {
	for _, k := range []int{1, 2, 32, 64, 65, 128, 200} {
		r := buildResult(t, k)
		enc := encodeResult(t, r)
		got, err := ReadResult(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("k=%d ReadResult: %v", k, err)
		}
		if got.Algorithm != r.Algorithm || got.Order != r.Order ||
			got.K != r.K || got.NumVertices != r.NumVertices || got.NumEdges != r.NumEdges {
			t.Fatalf("k=%d header mismatch: %+v vs %+v", k, got, r)
		}
		for p := range r.Sizes {
			if got.Sizes[p] != r.Sizes[p] {
				t.Fatalf("k=%d size[%d] = %d, want %d", k, p, got.Sizes[p], r.Sizes[p])
			}
		}
		for v := 0; v < r.NumVertices; v++ {
			for w := 0; w < r.Replicas.Words(); w++ {
				if got.Replicas.Word(graph.VertexID(v), w) != r.Replicas.Word(graph.VertexID(v), w) {
					t.Fatalf("k=%d vertex %d word %d differs", k, v, w)
				}
			}
		}
		// The write side is canonical: re-encoding the decoded result must
		// reproduce the file bit for bit.
		if re := encodeResult(t, got); !bytes.Equal(re, enc) {
			t.Fatalf("k=%d re-encode is not bit-identical (%d vs %d bytes)", k, len(re), len(enc))
		}
	}
}

// seededResult builds a result shaped like a real partitioning: nv
// vertices with one to seven replicas each at seeded partition ids, and
// uneven partition sizes that sum to the edge count.
func seededResult(t testing.TB, nv, k int, seed uint64) *Result {
	t.Helper()
	rng := xrand.New(seed)
	rs := metrics.NewReplicaSets(nv, k)
	for v := 0; v < nv; v++ {
		for n := 1 + rng.Intn(7); n > 0; n-- {
			rs.Add(graph.VertexID(v), rng.Intn(k))
		}
	}
	sizes := make([]int64, k)
	var ne int64
	for p := range sizes {
		sizes[p] = int64(rng.Intn(1 << 20))
		ne += sizes[p]
	}
	return &Result{Algorithm: "CLUGP", Order: "natural", K: k,
		NumVertices: nv, NumEdges: ne, Sizes: sizes, Replicas: rs}
}

// TestResultGoldenBytes pins the exact bytes WriteResult emits for two
// seeded results, so a change to the encoder cannot silently change the
// on-disk format. Each decodes and re-encodes to the same bytes.
func TestResultGoldenBytes(t *testing.T) {
	for _, tc := range []struct {
		nv, k int
		seed  uint64
		sha   string
	}{
		{20000, 256, 1, "16d8f0cda8d49579136c30726c183666ffba0864b318ea455c99631a62a0092e"},
		{20000, 32, 2, "11f0f51868959cd6e4fadfe4735c9ae71b1c8709f649f07d669fd285e8ddffb0"},
	} {
		enc := encodeResult(t, seededResult(t, tc.nv, tc.k, tc.seed))
		sum := sha256.Sum256(enc)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("k=%d: WriteResult bytes hash to %s, want %s", tc.k, got, tc.sha)
		}
		got, err := ReadResult(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("k=%d ReadResult: %v", tc.k, err)
		}
		if re := encodeResult(t, got); !bytes.Equal(re, enc) {
			t.Errorf("k=%d: re-encode is not bit-identical", tc.k)
		}
	}
}

// limitWriter accepts n bytes, then fails every write.
type limitWriter struct{ n int }

var errWriteLimit = errors.New("write limit reached")

func (w *limitWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		return 0, errWriteLimit
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWriteResultReportsWriteError: a write that fails part-way through the
// body, or in the trailer, surfaces from WriteResult.
func TestWriteResultReportsWriteError(t *testing.T) {
	r := seededResult(t, 20000, 256, 1)
	size := len(encodeResult(t, r))
	for _, limit := range []int{0, 100 << 10, size - 1} {
		if err := WriteResult(&limitWriter{n: limit}, r); !errors.Is(err, errWriteLimit) {
			t.Errorf("limit %d of %d bytes: got %v, want the write error", limit, size, err)
		}
	}
}

func TestResultEmptyGraph(t *testing.T) {
	r := &Result{
		Algorithm: "DBH", Order: "natural", K: 4,
		Sizes:    make([]int64, 4),
		Replicas: metrics.NewReplicaSets(0, 4),
	}
	enc := encodeResult(t, r)
	got, err := ReadResult(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("ReadResult(empty): %v", err)
	}
	if got.NumVertices != 0 || got.NumEdges != 0 || got.K != 4 {
		t.Fatalf("empty result decoded as %+v", got)
	}
}

func TestResultRejectsCorruption(t *testing.T) {
	valid := encodeResult(t, buildResult(t, 64))
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"graph magic", []byte("CGR1")},
		{"junk", []byte("not a result file at all")},
		{"truncated magic", valid[:3]},
		{"truncated header", valid[:6]},
		{"truncated body", valid[:len(valid)-2]},
		{"trailing byte", append(append([]byte(nil), valid...), 0)},
	}
	for _, tc := range cases {
		if _, err := ReadResult(bytes.NewReader(tc.data)); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestResultRejectsForgedHeaders: forged counts are rejected by the body
// decoder's own guards - each header is sealed under a valid trailer, so
// the integrity layer passes it through.
func TestResultRejectsForgedHeaders(t *testing.T) {
	forge := func(nv, ne, k uint64) []byte {
		var buf bytes.Buffer
		buf.Write(resultMagic2[:])
		for _, x := range []uint64{nv, ne, k} {
			var tmp [10]byte
			n := putUvarintTmp(tmp[:], x)
			buf.Write(tmp[:n])
		}
		return seal(t, buf.Bytes())
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"vertex overflow", forge(1<<33, 1, 4)},
		{"edge overflow", forge(4, 1<<57, 4)},
		{"k zero", forge(4, 1, 0)},
		{"k overflow", forge(4, 1, maxK+1)},
	}
	for _, tc := range cases {
		_, err := ReadResult(bytes.NewReader(tc.data))
		wantDecodeError(t, tc.name, err)
	}
}

// wordsResult is a four-vertex k=64 result whose replica words take 1, 8,
// 10 and 1 bytes, so the first three are decoded by ReadResult's eight-byte
// loop (the 10-byte one on its long-varint branch) and the last by the
// byte-wise loop that finishes the body.
func wordsResult(t testing.TB) *Result {
	t.Helper()
	rs, err := metrics.NewReplicaSetsFromWords(4, 64, []uint64{5, 1 << 50, 1<<63 | 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	sizes := make([]int64, 64)
	sizes[0], sizes[63] = 4, 2
	return &Result{Algorithm: "HDRF", Order: "bfs", K: 64,
		NumVertices: 4, NumEdges: 6, Sizes: sizes, Replicas: rs}
}

// resultPayload encodes r's payload as WriteResult does, except that the
// varint named spell (if any) is written one byte too long: its last byte
// gains a continuation bit and a zero byte follows, the same value spelled
// non-canonically. Names are "vertex count", "edge count", "partition
// count", "algorithm length", "order length", "size P" and "word N".
func resultPayload(r *Result, spell string) []byte {
	b := append([]byte{}, resultMagic2[:]...)
	put := func(field string, x uint64) {
		if field == spell {
			b = spellLong(b, x)
		} else {
			b = binary.AppendUvarint(b, x)
		}
	}
	put("vertex count", uint64(r.NumVertices))
	put("edge count", uint64(r.NumEdges))
	put("partition count", uint64(r.K))
	put("algorithm length", uint64(len(r.Algorithm)))
	b = append(b, r.Algorithm...)
	put("order length", uint64(len(r.Order)))
	b = append(b, r.Order...)
	for p, sz := range r.Sizes {
		put(fmt.Sprint("size ", p), uint64(sz))
	}
	for v := 0; v < r.NumVertices; v++ {
		for w := 0; w < r.Replicas.Words(); w++ {
			put(fmt.Sprint("word ", v*r.Replicas.Words()+w), r.Replicas.Word(graph.VertexID(v), w))
		}
	}
	return b
}

// TestResultRejectsOverlongVarint: every varint field of a CPR2 file has
// exactly one accepted spelling, so a decoded file always re-encodes to
// itself. Each case spells one field with a redundant trailing zero byte
// (a vertex count of 4 as 0x84 0x00, say) and seals it under a valid
// trailer; the decoder must reject it.
func TestResultRejectsOverlongVarint(t *testing.T) {
	r := wordsResult(t)
	canonical := resultPayload(r, "")
	if want := payloadOf(t, encodeResult(t, r)); !bytes.Equal(canonical, want) {
		t.Fatal("resultPayload does not match WriteResult's payload")
	}
	for _, field := range []string{"vertex count", "edge count", "partition count",
		"algorithm length", "order length", "size 0", "word 0", "word 1", "word 3"} {
		_, err := ReadResult(bytes.NewReader(seal(t, resultPayload(r, field))))
		wantDecodeError(t, field, err)
		if err != nil && !errors.Is(err, errVarintOverlong) {
			t.Errorf("%s: got %v, want an overlong-varint error", field, err)
		}
	}
	// A 10-byte word has no longer spelling that still fits 64 bits.
	_, err := ReadResult(bytes.NewReader(seal(t, resultPayload(r, "word 2"))))
	wantDecodeError(t, "word 2", err)
}

// TestResultTableAllocationBound: the replica table is sized from the
// header only after the body is shown to hold at least one byte per
// declared word, so a sealed file whose header declares a table its body
// cannot hold is rejected without allocating that table.
func TestResultTableAllocationBound(t *testing.T) {
	forge := func(nv uint64, k int, body []byte) []byte {
		b := append([]byte{}, resultMagic2[:]...)
		b = binary.AppendUvarint(b, nv)
		b = binary.AppendUvarint(b, 0)
		b = binary.AppendUvarint(b, uint64(k))
		b = append(b, 0, 0) // empty algorithm and order names
		b = append(b, make([]byte, k)...)
		return seal(t, append(b, body...))
	}
	// 2^23 words of table (64 MB) over one byte fewer of body.
	const nv, k = 1 << 21, 256
	need := nv * (k / 64)
	cases := []struct {
		name string
		data []byte
	}{
		{"2^32 vertices, short body", forge(1<<32, 64, make([]byte, 100))},
		{"need words over need-1 bytes", forge(nv, k, make([]byte, need-1))},
	}
	for _, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadResult(bytes.NewReader(tc.data))
		runtime.ReadMemStats(&after)
		wantDecodeError(t, tc.name, err)
		if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
			t.Errorf("%s: rejecting allocated %d MB", tc.name, grew>>20)
		}
	}
	// A body of exactly need bytes holds a valid (all-empty) table.
	if _, err := ReadResult(bytes.NewReader(forge(1000, k, make([]byte, 1000*(k/64))))); err != nil {
		t.Fatalf("table of need one-byte words rejected: %v", err)
	}
}

// TestReadResultAllocation: reading a result allocates at most twice the
// file plus the replica table, and a fixed slack for one read chunk past
// the end and the header fields - through a buffered reader as partsrv
// and the pipeline benchmark read, and through one that splits every read
// in half.
func TestReadResultAllocation(t *testing.T) {
	r := seededResult(t, 300000, 256, 9)
	enc := encodeResult(t, r)
	size := uint64(len(enc))
	table := uint64(r.NumVertices * r.Replicas.Words() * 8)
	limit := 2*size + table + 128<<10
	for _, tc := range []struct {
		name string
		rd   func() io.Reader
	}{
		{"bufio", func() io.Reader { return bufio.NewReaderSize(bytes.NewReader(enc), 1<<16) }},
		{"half reads", func() io.Reader { return iotest.HalfReader(bytes.NewReader(enc)) }},
	} {
		rd := tc.rd()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadResult(rd)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if re := encodeResult(t, got); !bytes.Equal(re, enc) {
			t.Fatalf("%s: decoded result does not re-encode to the file", tc.name)
		}
		grew := after.TotalAlloc - before.TotalAlloc
		t.Logf("%s: %.2f MB allocated for a %.2f MB file and a %.2f MB table", tc.name,
			float64(grew)/(1<<20), float64(size)/(1<<20), float64(table)/(1<<20))
		if grew > limit {
			t.Errorf("%s: reading a %d-byte file with a %d-byte table allocated %d bytes, limit %d",
				tc.name, size, table, grew, limit)
		}
	}
}

func TestResultRejectsInconsistentBody(t *testing.T) {
	// Sizes that do not sum to the declared edge count.
	bad := buildResult(t, 4)
	bad.NumEdges++ // desynchronize header from sizes
	var buf bytes.Buffer
	if err := WriteResult(&buf, bad); err == nil {
		t.Fatal("WriteResult accepted sizes that do not sum to NumEdges")
	}

	// A replica word carrying bits above k-1: hand-patch a valid k=4 file.
	// Geometry: rebuild the same result with a stray bit via a wider table.
	words := []uint64{1 << 5, 0, 0, 0, 0, 0} // bit 5 with k=4
	if _, err := metrics.NewReplicaSetsFromWords(6, 4, words); err == nil {
		t.Fatal("NewReplicaSetsFromWords accepted stray bits above k")
	}

	// Writer-side geometry guards.
	r := buildResult(t, 4)
	r.Sizes = r.Sizes[:3]
	if err := WriteResult(io.Discard, r); err == nil {
		t.Fatal("WriteResult accepted len(Sizes) != k")
	}
	r = buildResult(t, 4)
	r.Replicas = metrics.NewReplicaSets(5, 4)
	if err := WriteResult(io.Discard, r); err == nil {
		t.Fatal("WriteResult accepted a replica table with the wrong vertex count")
	}
	r = buildResult(t, 4)
	r.Algorithm = strings.Repeat("x", maxName+1)
	if err := WriteResult(io.Discard, r); err == nil {
		t.Fatal("WriteResult accepted an oversized algorithm name")
	}
}

// putUvarintTmp mirrors binary.PutUvarint without importing it twice under a
// different name in tests.
func putUvarintTmp(buf []byte, x uint64) int {
	i := 0
	for x >= 0x80 {
		buf[i] = byte(x) | 0x80
		x >>= 7
		i++
	}
	buf[i] = byte(x)
	return i + 1
}
