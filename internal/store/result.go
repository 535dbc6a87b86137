package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"runtime"
	"sync"

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

// ErrBadResultMagic reports that the input is not a result file.
var ErrBadResultMagic = errors.New("store: bad magic (not a CPR2 result file)")

// resultMagic2 tags result files ("CPR" for Compressed Partition Result);
// the body is followed by the shared integrity trailer (see integrity.go).
var resultMagic2 = [4]byte{'C', 'P', 'R', '2'}

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
// canonical and ReadResult enforces it - it rejects overlong varints, the
// only other way to spell the same values - so WriteResult(ReadResult(f))
// reproduces f bit for bit; FuzzReadResult and FuzzReadResultBody hold this
// as the round-trip invariant.
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
// a CPR2 file - appending into one reused 64 KiB slice that is flushed
// before the next varint might not fit (the header, at most two names of
// maxName bytes, always fits).
func writeResultPayload(w io.Writer, r *Result) error {
	buf := appendHeader(make([]byte, 0, 1<<16), resultMagic2, uint64(r.NumVertices), uint64(r.NumEdges))
	buf = binary.AppendUvarint(buf, uint64(r.K))
	buf = appendString(appendString(buf, r.Algorithm), r.Order)
	var err error
	put := func(x uint64) {
		buf = binary.AppendUvarint(buf, x)
		if len(buf) > cap(buf)-binary.MaxVarintLen64 {
			if err == nil {
				_, err = w.Write(buf)
			}
			buf = buf[:0]
		}
	}
	for _, sz := range r.Sizes {
		put(uint64(sz))
	}
	words := r.Replicas.Words()
	for v := 0; v < r.NumVertices; v++ {
		for wd := 0; wd < words; wd++ {
			put(r.Replicas.Word(graph.VertexID(v), wd))
		}
	}
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// validateResult rejects inconsistent in-memory results before they reach
// disk, mirroring what ReadResult enforces on the way back in.
func validateResult(r *Result) error {
	if r.K < 1 || r.K > maxK {
		return fmt.Errorf("store: result k %d out of range [1, %d]", r.K, maxK)
	}
	if len(r.Algorithm) > maxName || len(r.Order) > maxName {
		return fmt.Errorf("store: result algorithm/order names exceed %d bytes", maxName)
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
	return r.Replicas.CheckBits()
}

// ReadResult decodes a result file written by WriteResult, validating every
// field before anything is sized from it: forged vertex/edge/partition
// counts, overlong varints, truncated bodies, stray replica bits above k and
// trailing bytes all reject. The replica table is allocated once, at its
// exact size, and only after the declared table is shown to fit: every
// varint takes at least one byte, so a table of need words must have at
// least need body bytes behind it. A forged header therefore cannot make
// the table more than 8x the bytes actually read.
//
// The file is read and proven whole before any field is decoded
// (readSealed), so a corrupt result can never be mistaken for a valid one,
// and reading a file of F bytes allocates F and at most one chunk besides
// the decoded result: the fields and the replica words decode from the
// chunks the file was read in.
func ReadResult(rd io.Reader) (*Result, error) {
	f, err := readSealed(rd, resultMagic2, ErrBadResultMagic, "result")
	if err != nil {
		return nil, err
	}
	return readResultBody(f)
}

// readResultBody decodes everything after the magic of the payload f,
// which must end exactly where the replica table does.
func readResultBody(f chunked) (*Result, error) {
	cur := f.cursor(int64(len(resultMagic2)))
	c := &cur
	nv, ne, err := readCounts(c)
	if err != nil {
		return nil, err
	}
	k, err := readK(c, "result")
	if err != nil {
		return nil, err
	}
	r := &Result{K: k, NumVertices: int(nv), NumEdges: int64(ne)}
	if r.Algorithm, err = c.str(); err != nil {
		return nil, fmt.Errorf("store: result algorithm: %w", err)
	}
	if r.Order, err = c.str(); err != nil {
		return nil, fmt.Errorf("store: result order: %w", err)
	}
	r.Sizes = make([]int64, k)
	var sum int64
	for p := 0; p < k; p++ {
		sz, err := c.field()
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
	need := nv * uint64((k+63)/64)
	if body := f.size - c.abs(); need > uint64(body) {
		return nil, fmt.Errorf("store: replica table of %d words cannot fit in %d body bytes: %w",
			need, body, io.ErrUnexpectedEOF)
	}
	words := make([]uint64, need)
	parts := min(runtime.GOMAXPROCS(0), len(words)/minPartWords)
	if err := decodeWordsParts(words, f, c, parts); err != nil {
		return nil, err
	}
	rs, err := metrics.NewReplicaSetsFromWords(int(nv), k, words)
	if err != nil {
		return nil, err
	}
	r.Replicas = rs
	// A result file is a complete artifact, not a stream prefix: trailing
	// bytes mean the file was corrupted or concatenated, and accepting them
	// would break the bit-identical round-trip contract.
	if c.abs() != f.size {
		return nil, errors.New("store: trailing data after result body")
	}
	return r, nil
}

// decodeWords fills words with the canonical varints at c. Replica words
// are mostly zero or a few scattered partition bits, so their lengths vary
// from word to word and a byte-at-a-time decoder mispredicts on nearly
// every one. The fast loop (decodeWindow) instead decodes the window in
// place, eight bytes at a time; the checked decoder takes the word that
// the window's end cuts, refilling the window, and every word after a
// window the fast loop refused, to name the word at fault.
func decodeWords(words []uint64, c *cursor) error {
	fast := true
	for w := 0; w < len(words); w++ {
		if fast {
			n, ok := decodeWindow(words[w:], c)
			w += n
			fast = ok
			if w == len(words) {
				break
			}
		}
		x, err := c.field()
		if err != nil {
			return fmt.Errorf("store: replica word %d of %d: %w", w, len(words), err)
		}
		words[w] = x
	}
	return nil
}

// decodeWindow decodes words from c's window while eight bytes of it are
// left, and returns how many it decoded. Each word loads eight bytes,
// finds the varint's length from the continuation bits and packs the
// 7-bit groups with shifts and masks; the overlong check is folded into
// one flag tested after the loop, so a word of up to eight bytes costs no
// data-dependent branch, and the nine- and ten-byte words (a partition bit
// at 56 or above) add one branch on the ninth byte. When the flag is set
// it reports false and consumes nothing.
func decodeWindow(words []uint64, c *cursor) (int, bool) {
	body := c.data[c.i:]
	i, w := 0, 0
	var bad uint64
	for ; w < len(words) && i+8 <= len(body); w++ {
		v := binary.LittleEndian.Uint64(body[i:])
		stops := ^v & 0x8080808080808080 // the high bit is clear in a varint's last byte
		if stops == 0 {
			if i+10 > len(body) {
				break
			}
			b8, b9 := uint64(body[i+8]), uint64(body[i+9])
			if b8 < 0x80 {
				// Nine bytes, overlong if the last is zero.
				bad |= (b8 - 1) >> 63
				words[w] = pack7(v) | b8<<56
				i += 9
			} else {
				// Ten bytes: the last holds bit 63 alone, so it must be 0x01.
				bad |= b9 ^ 1
				words[w] = pack7(v) | (b8&0x7f)<<56 | 1<<63
				i += 10
			}
			continue
		}
		end := uint64(bits.TrailingZeros64(stops)) + 1 // 8 x the varint's length
		v &= ^uint64(0) >> (64 - end)
		// Overlong: longer than one byte and ending in a zero byte.
		last, shift := v>>(end-8), end-8
		bad |= ((last - 1) >> 63) & ((0 - shift) >> 63)
		words[w] = pack7(v)
		i += int(end >> 3)
	}
	if bad != 0 {
		return 0, false
	}
	c.i += i
	return w, true
}

// pack7 joins the low seven bits of each of v's eight bytes into one
// 56-bit value, the first byte lowest.
func pack7(v uint64) uint64 {
	v = v&0x007f007f007f007f | (v&0x7f007f007f007f00)>>1
	v = v&0x00003fff00003fff | (v&0x3fff00003fff0000)>>2
	return v&0x000000000fffffff | (v&0x0fffffff00000000)>>4
}

// minPartWords is the fewest replica words one part of a split decode is
// given. On two CPUs a split k=256 table decodes faster from about 2^15
// words in all and slower below 2^14, where the count pass and the
// goroutine handover cost more than the second CPU saves; 2^16 words a
// part keeps well clear of that, so a small table, or a busy second CPU,
// never makes a read slower. DESIGN.md ("The result file") has the
// measurements; BenchmarkResultRead at -cpu 1,2 records both paths.
const minPartWords = 1 << 16

// decodeWordsParts decodes the same words as decodeWords, and leaves c and
// any error as it does, with the body - the bytes of f from c on - split
// into parts ranges of about equal length that decodeSplit decodes at
// once. When the split fails the whole body goes through decodeWords
// again, so a rejected body gets the serial decoder's error and word
// index. Below two parts it is decodeWords.
func decodeWordsParts(words []uint64, f chunked, c *cursor, parts int) error {
	if parts >= 2 {
		from, at := c.abs(), make([]int64, parts+1)
		for j := range at {
			at[j] = from + (f.size-from)*int64(j)/int64(parts)
		}
		if decodeSplit(words, f, at) {
			c.seek(f.size)
			return nil
		}
	}
	return decodeWords(words, c)
}

// decodeSplit decodes the bytes [at[0], at[len(at)-1]) of f into words in
// the len(at)-1 ranges that the cuts at (ascending) mark: one range on the
// calling goroutine and each other on its own, each writing its own
// contiguous share of words. A range may span chunks; its decode reads
// them in place. Every inner cut first moves forward, in place, to just
// past a byte whose high bit is clear, the last byte of a varint, so each
// range starts at a word. Each range then counts its last bytes, eight at
// a time, and the prefix sums of the counts give each range its first
// word; last, each range decodes its words with decodeWords into its own
// share of words. decodeSplit reports whether the bytes held exactly
// len(words) canonical varints, which is when every range decodes and
// ends exactly at its cut; otherwise words is partly written.
func decodeSplit(words []uint64, f chunked, at []int64) bool {
	parts := len(at) - 1
	for j := 1; j < parts; j++ {
		at[j] = max(at[j], at[j-1])
		for at[j] > at[0] && at[j] < at[parts] && f.byteAt(at[j]-1) >= 0x80 {
			at[j]++
		}
	}
	first := make([]int, len(at))
	eachPart(parts, func(j int) {
		f.each(at[j], at[j+1], func(b []byte) { first[j+1] += countLastBytes(b) })
	})
	for j := 0; j < parts; j++ {
		first[j+1] += first[j]
	}
	if first[parts] != len(words) {
		return false
	}
	ok := make([]bool, parts)
	eachPart(parts, func(j int) {
		rc := f.upTo(at[j+1]).cursor(at[j])
		ok[j] = decodeWords(words[first[j]:first[j+1]], &rc) == nil && rc.abs() == at[j+1]
	})
	for _, o := range ok {
		if !o {
			return false
		}
	}
	return true
}

// countLastBytes counts the bytes of b whose high bit is clear: the number
// of varints that end in b.
func countLastBytes(b []byte) int {
	n := 0
	for ; len(b) >= 8; b = b[8:] {
		n += 8 - bits.OnesCount64(binary.LittleEndian.Uint64(b)&0x8080808080808080)
	}
	for _, x := range b {
		n += int(^x >> 7)
	}
	return n
}

// eachPart runs f(0), ..., f(parts-1) at once, f(0) on the calling
// goroutine, and returns when all have.
func eachPart(parts int, f func(int)) {
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for j := 1; j < parts; j++ {
		go func() {
			defer wg.Done()
			f(j)
		}()
	}
	f(0)
	wg.Wait()
}
