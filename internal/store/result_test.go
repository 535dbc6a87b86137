package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"runtime"
	"slices"
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

// TestReadResultAllocation: reading a result allocates at most the file
// (the chunks it is read in, which it decodes in place) plus the replica
// table, and a fixed slack for one read chunk past the end, the trailer
// and the header fields - through a buffered reader as partsrv and the
// pipeline benchmark read, and through one that splits every read in half.
func TestReadResultAllocation(t *testing.T) {
	r := seededResult(t, 300000, 256, 9)
	enc := encodeResult(t, r)
	size := uint64(len(enc))
	table := uint64(r.NumVertices * r.Replicas.Words() * 8)
	limit := size + table + 128<<10
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

// TestReadResultOtherBlockSizes: a file sealed with checksum blocks other
// than the 64 KiB the writers use is read to the same result, its blocks
// proven across chunk edges, and a forged block size far past the file
// costs no buffer of that size: the read stays within the file, the table
// and 128 KiB.
func TestReadResultOtherBlockSizes(t *testing.T) {
	r := seededResult(t, 30000, 256, 4)
	enc := encodeResult(t, r)
	payload := payloadOf(t, enc)
	table := uint64(r.NumVertices * r.Replicas.Words() * 8)
	for _, bs := range []int{1 << 10, 1500, 1 << 26} {
		var crcs []byte
		for lo := 0; lo < len(payload); lo += bs {
			crcs = binary.LittleEndian.AppendUint32(crcs, crc32.Checksum(payload[lo:min(lo+bs, len(payload))], castagnoli))
		}
		tb := binary.AppendUvarint(append([]byte{}, trailerMagic[:]...), uint64(bs))
		tb = append(binary.AppendUvarint(tb, uint64(len(crcs)/4)), crcs...)
		data := append(append([]byte{}, payload...), tb...)
		data = binary.LittleEndian.AppendUint64(data, uint64(len(payload)))
		data = binary.LittleEndian.AppendUint32(data, crc32.Checksum(tb, castagnoli))
		data = append(data, footerMagic[:]...)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got, err := ReadResult(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("block size %d: %v", bs, err)
		}
		if !bytes.Equal(encodeResult(t, got), enc) {
			t.Fatalf("block size %d: decoded result differs", bs)
		}
		if grew, limit := after.TotalAlloc-before.TotalAlloc, uint64(len(data))+table+128<<10; grew > limit {
			t.Errorf("block size %d: reading allocated %d bytes, limit %d", bs, grew, limit)
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

// TestWriteResultRefusesStrayBits: a table built in memory can carry a bit
// above partition k-1 (ReplicaSets.Add does not check p < k). The writer
// refuses it with the reader's message, so no file is written that
// ReadResult would refuse.
func TestWriteResultRefusesStrayBits(t *testing.T) {
	r := buildResult(t, 4)
	r.Replicas.Add(0, 5)
	const want = "metrics: vertex 0 has replica bits above partition 4-1"
	err := WriteResult(io.Discard, r)
	if err == nil || err.Error() != want {
		t.Fatalf("WriteResult: got %v, want %q", err, want)
	}
	// The same table, sealed without the writer's check, is what the
	// reader refuses.
	_, err = ReadResult(bytes.NewReader(seal(t, resultPayload(r, ""))))
	if err == nil || err.Error() != want {
		t.Fatalf("ReadResult: got %v, want %q", err, want)
	}
}

// refDecodeWords is decodeWords as it was before the nine- and ten-byte
// words were decoded inline and before the body was split: the oracle the
// split decoder is held to.
func refDecodeWords(words []uint64, c *cursor) error {
	body := c.data[c.i:]
	i, w := 0, 0
	var bad uint64
	for ; w < len(words) && i+8 <= len(body); w++ {
		v := binary.LittleEndian.Uint64(body[i:])
		stops := ^v & 0x8080808080808080 // the high bit is clear in a varint's last byte
		if stops == 0 {
			// Nine or ten bytes: only words with a partition bit at 56 or above.
			x, n := binary.Uvarint(body[i:])
			if n <= 0 || body[i+n-1] == 0 {
				bad = 1
				break
			}
			words[w] = x
			i += n
			continue
		}
		end := uint64(bits.TrailingZeros64(stops)) + 1 // 8 x the varint's length
		v &= ^uint64(0) >> (64 - end)
		// Overlong: longer than one byte and ending in a zero byte.
		last, shift := v>>(end-8), end-8
		bad |= ((last - 1) >> 63) & ((0 - shift) >> 63)
		v = v&0x007f007f007f007f | (v&0x7f007f007f007f00)>>1
		v = v&0x00003fff00003fff | (v&0x3fff00003fff0000)>>2
		v = v&0x000000000fffffff | (v&0x0fffffff00000000)>>4
		words[w] = v
		i += int(end >> 3)
	}
	if bad != 0 {
		i, w = 0, 0
	}
	c.i += i
	for ; w < len(words); w++ {
		x, err := c.field()
		if err != nil {
			return fmt.Errorf("store: replica word %d of %d: %w", w, len(words), err)
		}
		words[w] = x
	}
	return nil
}

// wordCase is a replica-word body and the number of words to decode from
// it.
type wordCase struct {
	name string
	body []byte
	n    int
}

// wordCases returns a valid body shaped like a k-partition table, with
// words of every length from 1 to 10 bytes (bits 55, 56, 62 and 63 where
// k has them) and zero words, and forgeries of it: overlong words at the
// first, a middle and the last word, a ninth byte of 0x00, tenth bytes of
// 0x02 and 0x80, eleven continuation bytes, a cut inside a ten-byte word,
// and one word too many and one too few.
func wordCases(k int) []wordCase {
	cands := []uint64{0, 1, 0x7f, 1 << 7, 1 << 14, 1 << 21, 1 << 28, 1 << 35, 1 << 42,
		1 << 49, 1 << 55, 1 << 56, 1 << 62, 1 << 63, 1<<63 | 1<<56 | 5, ^uint64(0)}
	wpv := (k + 63) / 64
	var vals []uint64
	for v := 0; v <= len(cands); v++ {
		for wd := 0; wd < wpv; wd++ {
			x := cands[(v+5*wd)%len(cands)]
			if wd == wpv-1 && k%64 != 0 {
				x &= 1<<(k%64) - 1
			}
			vals = append(vals, x)
		}
	}
	n, mid := len(vals), len(vals)/2
	// with replaces word i's encoding by spell.
	with := func(i int, spell ...byte) []byte {
		b := uvarints(vals[:i]...)
		b = append(b, spell...)
		return append(b, uvarints(vals[i+1:]...)...)
	}
	long := func(i int) []byte { return with(i, spellLong(nil, vals[i])...) }
	nine := []byte{0x85, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x00}
	ten := func(last ...byte) []byte {
		return append([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}, last...)
	}
	eleven := append(slices.Repeat([]byte{0x80}, 11), 0x01)
	valid := uvarints(vals...)
	cutTen := append(uvarints(vals[:n-1]...), uvarints(1 << 63)[:6]...)
	return []wordCase{
		{"valid", valid, n},
		{"overlong first word", long(0), n},
		{"overlong middle word", long(mid), n},
		{"overlong last word", long(n - 1), n},
		{"ninth byte 0x00", with(mid, nine...), n},
		{"tenth byte 0x02", with(mid, ten(0x02)...), n},
		{"tenth byte 0x80", with(mid, ten(0x80, 0x01)...), n},
		{"eleven continuation bytes", with(mid, eleven...), n},
		{"cut inside a ten-byte word", cutTen, n},
		{"one word too many", append(uvarints(vals...), 5), n},
		{"one word too few", uvarints(vals[:n-1]...), n},
		{"trailing continuation byte", append(uvarints(vals...), 0x80), n},
	}
}

// checkSameDecode fails unless a decode left the cursor where the
// reference's did, with the same error text, and with the same words when
// the reference succeeded.
func checkSameDecode(t *testing.T, name string, got, want []uint64, gotAt, wantAt int, err, wantErr error) {
	t.Helper()
	if fmt.Sprint(err) != fmt.Sprint(wantErr) {
		t.Fatalf("%s: error %v, reference %v", name, err, wantErr)
	}
	if gotAt != wantAt {
		t.Fatalf("%s: cursor ends at %d, reference at %d", name, gotAt, wantAt)
	}
	if wantErr == nil && !slices.Equal(got, want) {
		t.Fatalf("%s: words differ from the reference", name)
	}
}

// chunksOf holds data as a file read in chunks of n bytes.
func chunksOf(data []byte, n int) chunked {
	f := chunked{n: n, size: int64(len(data))}
	for lo := 0; lo == 0 || lo < len(data); lo += n {
		f.c = append(f.c, data[lo:min(lo+n, len(data))])
	}
	return f
}

// straddleChunk is the chunk length at which straddleCases put a chunk
// edge inside a word.
const straddleChunk = 16

// straddleCases returns bodies, read after two bytes as the tests read
// them, in which a chunk edge of straddleChunk-byte chunks falls at every
// offset 0 to 9 of a ten-byte word: valid ones, and ones where that word
// has a tenth byte of 0x02 or is an overlong two-byte word.
func straddleCases() []wordCase {
	var cases []wordCase
	for off := 0; off < binary.MaxVarintLen64; off++ {
		// The word starts at data offset straddleChunk-off; the two bytes
		// before the body and single-byte words fill the way to it.
		pad := make([]byte, straddleChunk-off-2)
		for _, wc := range []struct {
			name  string
			spell []byte
		}{
			{"ten-byte word", uvarints(1<<63 | 1<<56 | 3)},
			{"tenth byte 0x02", append(slices.Repeat([]byte{0xff}, 9), 0x02)},
			{"overlong word", []byte{0x85, 0x80, 0x00}},
		} {
			body := append(slices.Clone(pad), wc.spell...)
			body = append(body, uvarints(1<<14, 0, 1<<63, 7)...)
			cases = append(cases, wordCase{fmt.Sprintf("%s at chunk offset %d", wc.name, off), body, len(pad) + 5})
		}
	}
	return cases
}

// TestDecodeWordsPartsMatchReference: the split decoder gives the
// reference's words, cursor end and error text on every body, read in
// chunks of 64 KiB, 16 and 3 bytes, at every part count from 1 to 8 and
// with the cut at every byte of the body; the split itself succeeds
// exactly when the body holds the words and nothing else. The body sits
// after two bytes the cursor has already passed, one of them a
// continuation byte, and straddleCases put a chunk edge at every offset
// of a ten-byte word.
func TestDecodeWordsPartsMatchReference(t *testing.T) {
	type bodyCase struct {
		name  string
		valid bool
		wordCase
	}
	var cases []bodyCase
	for _, k := range []int{1, 63, 64, 65, 256} {
		for _, wc := range wordCases(k) {
			cases = append(cases, bodyCase{fmt.Sprintf("k=%d/%s", k, wc.name), wc.name == "valid", wc})
		}
	}
	for _, wc := range straddleCases() {
		cases = append(cases, bodyCase{wc.name, strings.HasPrefix(wc.name, "ten-byte"), wc})
	}
	r := seededResult(t, 20000, 256, 5)
	var vals []uint64
	for v := 0; v < r.NumVertices; v++ {
		for wd := 0; wd < r.Replicas.Words(); wd++ {
			vals = append(vals, r.Replicas.Word(graph.VertexID(v), wd))
		}
	}
	cases = append(cases, bodyCase{"k=256/seeded", true, wordCase{body: uvarints(vals...), n: len(vals)}})
	for _, tc := range cases {
		data := append([]byte{0xaa, 0x01}, tc.body...)
		end := int64(len(data))
		want := make([]uint64, tc.n)
		rc := mappedCursor(data)
		rc.i = 2
		wantErr := refDecodeWords(want, &rc)
		exact := wantErr == nil && rc.i == len(data)
		if tc.valid != exact {
			t.Fatalf("%s: the reference decodes the body exactly: %v (%v)", tc.name, exact, wantErr)
		}
		for _, chunk := range []int{sealedChunk, straddleChunk, 3} {
			f := chunksOf(data, chunk)
			name := fmt.Sprintf("%s/chunk=%d", tc.name, chunk)
			for parts := 1; parts <= 8; parts++ {
				got := make([]uint64, tc.n)
				c := f.cursor(2)
				err := decodeWordsParts(got, f, &c, parts)
				checkSameDecode(t, fmt.Sprintf("%s/parts=%d", name, parts), got, want, int(c.abs()), rc.i, err, wantErr)
				at := make([]int64, parts+1)
				for j := range at {
					at[j] = 2 + (end-2)*int64(j)/int64(parts)
				}
				if tc.valid && !decodeSplit(got, f, at) {
					t.Fatalf("%s/parts=%d: a valid body takes the serial fallback", name, parts)
				}
			}
			// Every cut position, on the small bodies: the split succeeds
			// exactly when the reference decodes the whole body, so a
			// valid table never takes the serial fallback.
			if len(tc.body) > 1<<10 {
				continue
			}
			for x := int64(2); x <= end; x++ {
				got := make([]uint64, tc.n)
				if ok := decodeSplit(got, f, []int64{2, x, end}); ok != exact {
					t.Fatalf("%s: cut at %d: split decode reports %v, the reference %v", name, x, ok, exact)
				}
				if exact && !slices.Equal(got, want) {
					t.Fatalf("%s: cut at %d: words differ from the reference", name, x)
				}
			}
		}
	}
}
