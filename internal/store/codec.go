package store

import (
	"bufio"
	"encoding/binary"
	"fmt"

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

// readHeader consumes the magic and declared counts from the cursor,
// validating them before anything is sized from them.
func readHeader(c *cursor) (int, int, error) {
	var m [4]byte
	if err := c.readFull(m[:]); err != nil {
		return 0, 0, fmt.Errorf("store: reading magic: %w", err)
	}
	if m != magic3 {
		return 0, 0, ErrBadMagic
	}
	nv, err := c.uvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("store: reading vertex count: %w", err)
	}
	ne, err := c.uvarint()
	if err != nil {
		return 0, 0, fmt.Errorf("store: reading edge count: %w", err)
	}
	if err := checkCounts(nv, ne); err != nil {
		return 0, 0, err
	}
	return int(nv), int(ne), nil
}

// checkCounts rejects header counts no valid file can carry before anything
// is sized from them: vertex ids must fit the uint32 VertexID space, and a
// declared edge count beyond what varint encoding could physically fit in
// any file (or that would overflow int) means a corrupt or adversarial
// header rather than a graph.
func checkCounts(nv, ne uint64) error {
	if nv > 1<<32 {
		return fmt.Errorf("store: vertex count %d exceeds uint32 space", nv)
	}
	if ne > 1<<56 {
		return fmt.Errorf("store: edge count %d is implausible (corrupt header?)", ne)
	}
	return nil
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
// every source: MmapSource wraps it around the mapped bytes (or a read-at
// window in fallback mode), ReaderAtSource around a read-at window, Reader
// around the buffered file.
type decoder struct {
	cur cursor
	st  decState
	nv  int64
	ne  int64
}

// seek positions the decoder at a byte offset with the given state.
func (d *decoder) seek(off int64, st decState) {
	d.cur.seek(off)
	d.st = st
}

// runInline is the largest run length the packed header carries inline;
// longer runs spill the remainder into a follow-up varint.
const runInline = 15

// next decodes the edge at stream index i.
func (d *decoder) next(i int) (graph.Edge, error) {
	st := &d.st
	// Mid-interval: the token was consumed whole, the state replays it.
	if st.ivLeft > 0 {
		return d.stepInterval(i)
	}
	// Run boundary: decode the packed header (source gap + run length).
	if st.runLeft == 0 {
		h, err := d.cur.uvarint()
		if err != nil {
			return graph.Edge{}, fmt.Errorf("store: edge %d run header: %w", i, err)
		}
		src := st.prevSrc + unzigzag(h>>4) + 1
		if src < 0 || src >= d.nv {
			return graph.Edge{}, fmt.Errorf("store: edge %d run source %d out of range (n=%d)", i, src, d.nv)
		}
		runLen := int64(h&runInline) + 1
		if h&runInline == runInline {
			extra, err := d.cur.uvarint()
			if err != nil {
				return graph.Edge{}, fmt.Errorf("store: edge %d run length: %w", i, err)
			}
			if extra > uint64(d.ne) {
				return graph.Edge{}, fmt.Errorf("store: edge %d run length %d past declared edge count %d", i, extra, d.ne)
			}
			runLen = runInline + 1 + int64(extra)
		}
		if runLen > d.ne-int64(i) {
			return graph.Edge{}, fmt.Errorf("store: edge %d run of %d exceeds declared edge count %d", i, runLen, d.ne)
		}
		st.prevSrc = src
		st.prevDst = src // targets are relative to the source initially
		st.runLeft = int(runLen)
	}
	// Target token: 0 starts an interval (consecutive ids), anything else
	// is a single target at gap unzigzag(T-1) from the previous one.
	t, err := d.cur.uvarint()
	if err != nil {
		return graph.Edge{}, fmt.Errorf("store: edge %d target: %w", i, err)
	}
	if t == 0 {
		c, err := d.cur.uvarint()
		if err != nil {
			return graph.Edge{}, fmt.Errorf("store: edge %d interval: %w", i, err)
		}
		if c < 1 || c > uint64(st.runLeft) {
			return graph.Edge{}, fmt.Errorf("store: edge %d interval of %d exceeds run remainder %d", i, c, st.runLeft)
		}
		st.ivLeft = int(c)
		return d.stepInterval(i)
	}
	dst := st.prevDst + unzigzag(t-1)
	if dst < 0 || dst >= d.nv {
		return graph.Edge{}, fmt.Errorf("store: edge %d (%d->%d) out of range (n=%d)", i, st.prevSrc, dst, d.nv)
	}
	st.prevDst = dst
	st.runLeft--
	return graph.Edge{Src: graph.VertexID(st.prevSrc), Dst: graph.VertexID(dst)}, nil
}

// stepInterval emits the next target of an in-flight interval token.
func (d *decoder) stepInterval(i int) (graph.Edge, error) {
	st := &d.st
	dst := st.prevDst + 1
	if dst >= d.nv {
		return graph.Edge{}, fmt.Errorf("store: edge %d interval target %d out of range (n=%d)", i, dst, d.nv)
	}
	st.prevDst = dst
	st.ivLeft--
	st.runLeft--
	return graph.Edge{Src: graph.VertexID(st.prevSrc), Dst: graph.VertexID(dst)}, nil
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

func (w *varintWriter) varint(x int64) error {
	return w.uvarint(zigzag(x))
}

// writeHeader emits the magic and counts for g.
func (w *varintWriter) writeHeader(g *graph.Graph) error {
	if _, err := w.bw.Write(magic3[:]); err != nil {
		return err
	}
	if err := w.uvarint(uint64(g.NumVertices)); err != nil {
		return err
	}
	return w.uvarint(uint64(g.NumEdges()))
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
