package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/graph"
)

// Format identifies an on-disk graph encoding. CGR3 is the only one: the
// type survives so callers can name the format they write (WriteFormat)
// and check what they opened (Format()).
type Format uint8

// FormatCGR3 is the graph format: a run/interval/residual body (edges
// grouped into maximal same-source runs with a packed run header, targets
// coded as interval tokens for runs of consecutive ids and residual gap
// tokens relative to the previous target; see DESIGN.md for the bit
// layout) followed by a CRC32C block-checksum trailer and footer (see
// integrity.go) that let every source detect bit flips, torn writes and
// truncation instead of decoding garbage.
const FormatCGR3 Format = 3

// String returns the format's magic name.
func (f Format) String() string {
	if f == FormatCGR3 {
		return "CGR3"
	}
	return fmt.Sprintf("Format(%d)", uint8(f))
}

var magic3 = [4]byte{'C', 'G', 'R', '3'}

// SniffHeader reports whether head starts with the graph-file magic.
func SniffHeader(head []byte) bool {
	return len(head) >= 4 && [4]byte(head[:4]) == magic3
}

// decState is the delta-decoder state between two edges - everything beyond
// the byte offset that a seek must restore: the current run's source, the
// position inside the run and any in-flight interval token. Token
// boundaries never split across edges, so (offset, decState) at any edge
// boundary is a complete resume point.
type decState struct {
	// prevSrc is the current run's source (run headers encode gaps between
	// run sources).
	prevSrc int64
	// prevDst is the previous target within the current run.
	prevDst int64
	// runLeft counts targets remaining in the current run.
	runLeft int
	// ivLeft counts targets remaining in the current interval token.
	ivLeft int
}

// decoder decodes edges from a cursor bounded to the checksummed payload,
// so it never sees the trailer. It is the single decode core shared by
// every way a graph is read: MmapSource wraps it around the mapped bytes
// (or a read-at window in fallback mode), ReaderAtSource around a read-at
// window, Read around the buffered file.
type decoder struct {
	cur cursor
	st  decState
	nv  int64
	ne  int64
}

// readHeader decodes the counts at the cursor, which stands past the
// magic.
func (d *decoder) readHeader() error {
	nv, ne, err := readCounts(&d.cur)
	if err != nil {
		return err
	}
	d.nv, d.ne = int64(nv), int64(ne)
	return nil
}

// seek positions the decoder at a byte offset with the given state.
func (d *decoder) seek(off int64, st decState) {
	d.cur.seek(off)
	d.st = st
}

// runInline is the largest run length the packed header carries inline;
// longer runs spill the remainder into a follow-up varint.
const runInline = 15

// decodeBlock decodes the len(dst) edges from stream index first on into
// dst. The run/interval state, the window and the byte index stay in
// locals for the whole block; a run's targets decode in an inner loop that
// stops only at the block's end, the run's end or an interval token;
// varints of up to four bytes decode inline (uvarintFast); and interval
// tokens expand in a fill loop with one range check per fill. Only a
// longer varint, or one within four bytes of the window's end (where a
// read-at cursor refills), goes through the cursor.
// Every error names the first edge that cannot be decoded, with the same
// text for any block length (the per-edge test oracle refNext pins both);
// after one, dst holds no defined edges and the decoder must be
// repositioned (seek) before it decodes again.
func (d *decoder) decodeBlock(dst []graph.Edge, first int) error {
	data, i := d.cur.data, d.cur.i
	src, prev := d.st.prevSrc, d.st.prevDst
	runLeft, ivLeft := d.st.runLeft, d.st.ivLeft
	nv, ne := d.nv, d.ne
	for j := 0; j < len(dst); {
		// Mid-interval: the token was consumed whole, the state replays
		// it. Targets climb by one, so checking the last covers the fill.
		if ivLeft > 0 {
			n := min(ivLeft, len(dst)-j)
			if prev+int64(n) >= nv {
				return fmt.Errorf("store: edge %d interval target %d out of range (n=%d)", first+j+int(nv-1-prev), nv, nv)
			}
			s := graph.VertexID(src)
			for k := range dst[j : j+n] {
				prev++
				dst[j+k] = graph.Edge{Src: s, Dst: graph.VertexID(prev)}
			}
			ivLeft -= n
			runLeft -= n
			j += n
			continue
		}
		var err error
		// Run boundary: decode the packed header (source gap + run length).
		if runLeft == 0 {
			e := first + j
			h, ni := uvarintFast(data, i)
			if ni == 0 {
				if h, data, ni, err = d.uvarintSlow(i); err != nil {
					return fmt.Errorf("store: edge %d run header: %w", e, err)
				}
			}
			i = ni
			runSrc := src + unzigzag(h>>4) + 1
			if runSrc < 0 || runSrc >= nv {
				return fmt.Errorf("store: edge %d run source %d out of range (n=%d)", e, runSrc, nv)
			}
			runLen := int64(h&runInline) + 1
			if h&runInline == runInline {
				extra, ni := uvarintFast(data, i)
				if ni == 0 {
					if extra, data, ni, err = d.uvarintSlow(i); err != nil {
						return fmt.Errorf("store: edge %d run length: %w", e, err)
					}
				}
				i = ni
				if extra > uint64(ne) {
					return fmt.Errorf("store: edge %d run length %d past declared edge count %d", e, extra, ne)
				}
				runLen = runInline + 1 + int64(extra)
			}
			if runLen > ne-int64(e) {
				return fmt.Errorf("store: edge %d run of %d exceeds declared edge count %d", e, runLen, ne)
			}
			src, prev, runLeft = runSrc, runSrc, int(runLen) // targets start relative to the source
		}
		// Targets of the run up to the block's end or the next interval
		// token: 0 starts an interval (consecutive ids), anything else is
		// a single target at gap unzigzag(T-1) from the previous one.
		s, k, stop := graph.VertexID(src), j, j+min(runLeft, len(dst)-j)
		for k < stop {
			t, ni := uvarintFast(data, i)
			if ni == 0 {
				if t, data, ni, err = d.uvarintSlow(i); err != nil {
					return fmt.Errorf("store: edge %d target: %w", first+k, err)
				}
			}
			i = ni
			if t == 0 {
				c, ni := uvarintFast(data, i)
				if ni == 0 {
					if c, data, ni, err = d.uvarintSlow(i); err != nil {
						return fmt.Errorf("store: edge %d interval: %w", first+k, err)
					}
				}
				i = ni
				if rem := runLeft - (k - j); c < 1 || c > uint64(rem) {
					return fmt.Errorf("store: edge %d interval of %d exceeds run remainder %d", first+k, c, rem)
				}
				ivLeft = int(c)
				break
			}
			v := prev + unzigzag(t-1)
			if v < 0 || v >= nv {
				return fmt.Errorf("store: edge %d (%d->%d) out of range (n=%d)", first+k, src, v, nv)
			}
			dst[k] = graph.Edge{Src: s, Dst: graph.VertexID(v)}
			prev = v
			k++
		}
		runLeft -= k - j
		j = k
	}
	d.cur.i = i
	d.st = decState{prevSrc: src, prevDst: prev, runLeft: runLeft, ivLeft: ivLeft}
	return nil
}

// uvarintFast decodes the varint at data[i] when data holds four bytes
// from i and the varint ends within them, returning it and the index past
// it; it returns index 0 otherwise, and decodeBlock falls back to
// uvarintSlow. Token lengths vary from edge to edge, so rather than branch
// per byte it loads the four bytes, finds the last byte from the
// continuation bits and packs the 7-bit groups with masks and shifts, as
// decodeWords does for result words. It accepts exactly what
// binary.Uvarint accepts for these lengths.
func uvarintFast(data []byte, i int) (uint64, int) {
	if len(data)-i < 4 {
		return 0, 0
	}
	v := binary.LittleEndian.Uint32(data[i:])
	stops := ^v & 0x80808080
	if stops == 0 {
		return 0, 0
	}
	v &= stops ^ (stops - 1)
	v = v&0x007f007f | (v&0x7f007f00)>>1
	return uint64(v&0x3fff | (v&0x3fff0000)>>2), i + (bits.TrailingZeros32(stops)+1)>>3
}

// uvarintSlow decodes the varint at data[i] through the cursor, which
// handles long varints, overflow, truncation and read-at refills, and
// returns the value with the (possibly refilled) window and the index past
// the varint.
func (d *decoder) uvarintSlow(i int) (uint64, []byte, int, error) {
	d.cur.i = i
	x, err := d.cur.uvarint()
	return x, d.cur.data, d.cur.i, err
}

// varintWriter wraps a buffered writer with varint emission.
type varintWriter struct {
	bw  *bufio.Writer
	tmp [binary.MaxVarintLen64]byte
}

func (w *varintWriter) uvarint(x uint64) error {
	n := binary.PutUvarint(w.tmp[:], x)
	_, err := w.bw.Write(w.tmp[:n])
	return err
}

// encodeBody writes the run/interval/residual encoding. Edge order is
// preserved exactly - order is semantic for streaming partitioners - so
// interval tokens only fire on targets that are already consecutive in the
// stream; nothing is sorted.
func encodeBody(w *varintWriter, edges []graph.Edge) error {
	prevSrc := int64(0)
	for i := 0; i < len(edges); {
		// Maximal same-source run.
		j := i + 1
		for j < len(edges) && edges[j].Src == edges[i].Src {
			j++
		}
		src := int64(edges[i].Src)
		runLen := j - i
		// Packed header: zig-zag source gap (biased by the common +1 step
		// between consecutive vertices) in the high bits, run length in the
		// low 4, overflowing into a follow-up varint.
		gapz := zigzag(src - prevSrc - 1)
		if runLen-1 >= runInline {
			if err := w.uvarint(gapz<<4 | runInline); err != nil {
				return err
			}
			if err := w.uvarint(uint64(runLen - 1 - runInline)); err != nil {
				return err
			}
		} else {
			if err := w.uvarint(gapz<<4 | uint64(runLen-1)); err != nil {
				return err
			}
		}
		prevSrc = src
		// Targets: intervals of consecutive ids collapse to (0, count);
		// residuals cost their gap from the previous target, zig-zagged and
		// shifted up by one to keep 0 free as the interval marker.
		prevDst := src
		for p := i; p < j; {
			dst := int64(edges[p].Dst)
			if dst == prevDst+1 {
				c := 1
				for p+c < j && int64(edges[p+c].Dst) == dst+int64(c) {
					c++
				}
				if c >= 2 {
					if err := w.uvarint(0); err != nil {
						return err
					}
					if err := w.uvarint(uint64(c)); err != nil {
						return err
					}
					prevDst = dst + int64(c-1)
					p += c
					continue
				}
			}
			if err := w.uvarint(zigzag(dst-prevDst) + 1); err != nil {
				return err
			}
			prevDst = dst
			p++
		}
		i = j
	}
	return nil
}
