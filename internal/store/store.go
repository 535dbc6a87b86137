// Package store implements the compact binary graph format playing the
// role WebGraph's BV format plays for the paper's datasets: crawl-ordered
// edge streams compress extremely well under gap encoding because
// consecutive edges share sources and target nearby vertices.
//
// The graph format, CGR3 (little-endian varints throughout):
//
//	magic "CGR3" | uvarint numVertices | uvarint numEdges |
//	per same-source run: packed header
//	(zigzag(srcGap-1)<<4 | min(runLen-1, 15), then uvarint(runLen-16)
//	when the low nibble is 15), then per target: 0 + uvarint(count)
//	for runs of consecutive ids, or zigzag(dst - prevDst) + 1 for
//	residuals |
//	CRC32C block-checksum trailer and footer (see integrity.go)
//
// On BFS-ordered web graphs it lands around 1.7 bytes/edge versus ~13 for
// the text edge list, by amortizing repeated sources over one run header
// and collapsing consecutive targets. Edge order is preserved exactly -
// order is semantic for streaming partitioners - and the checksums turn
// bit flips, torn writes and truncation into errors instead of wrong
// edges. Saved results (CPR2, result.go) and checkpoints (CPK1,
// checkpoint.go) share the same integrity trailer. The out-of-core sources
// over these files are MmapSource (mapped, with a portable read-at
// fallback) and ReaderAtSource (any io.ReaderAt).
package store

import (
	"bufio"
	"errors"
	"fmt"
	"io"

	"repro/internal/graph"
)

// ErrBadMagic reports that the input is not a graph file.
var ErrBadMagic = errors.New("store: bad magic (not a CGR3 graph file)")

// Write encodes the graph to w in the CGR3 format.
func Write(w io.Writer, g *graph.Graph) error {
	return WriteFormat(w, g, FormatCGR3)
}

// WriteFormat encodes the graph to w in the given format, which must be
// FormatCGR3: the payload goes through a checksumming writer and is sealed
// with the integrity trailer.
func WriteFormat(w io.Writer, g *graph.Graph, f Format) error {
	if f != FormatCGR3 {
		return errors.New("store: unknown format " + f.String())
	}
	cw := newCRCWriter(w)
	vw := &varintWriter{bw: bufio.NewWriterSize(cw, 1<<16)}
	if err := vw.writeHeader(g); err != nil {
		return err
	}
	if err := encodeBody(vw, g.Edges); err != nil {
		return err
	}
	if err := vw.bw.Flush(); err != nil {
		return err
	}
	return cw.writeTrailer()
}

// Reader streams edges from an encoded graph.
type Reader struct {
	dec         decoder
	numVertices int
	numEdges    int
	read        int
}

// NewReader validates the header and prepares decode. The trailer lives at
// EOF, out of reach of a forward-only reader, so the bytes are buffered and
// every payload block proven before the first edge decodes; the seekable
// sources (OpenMmap, OpenReaderAt) verify lazily instead and are what the
// streaming path uses.
func NewReader(r io.Reader) (*Reader, error) {
	var m [4]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return nil, fmt.Errorf("store: reading magic: %w", err)
	}
	if m != magic3 {
		return nil, ErrBadMagic
	}
	rest, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("store: buffering graph stream: %w", err)
	}
	data := make([]byte, 0, 4+len(rest))
	data = append(append(data, m[:]...), rest...)
	payload, err := verifyAllBytes(data, "stream")
	if err != nil {
		return nil, err
	}
	sr := &Reader{}
	sr.dec.cur = mappedCursor(payload)
	nv, ne, err := readHeader(&sr.dec.cur)
	if err != nil {
		return nil, err
	}
	sr.dec.nv = int64(nv)
	sr.dec.ne = int64(ne)
	sr.numVertices = nv
	sr.numEdges = ne
	return sr, nil
}

// NumVertices returns the declared vertex count.
func (r *Reader) NumVertices() int { return r.numVertices }

// NumEdges returns the declared edge count.
func (r *Reader) NumEdges() int { return r.numEdges }

// Next decodes the next edge. It returns io.EOF after the declared edge
// count has been delivered.
func (r *Reader) Next() (graph.Edge, error) {
	if r.read >= r.numEdges {
		return graph.Edge{}, io.EOF
	}
	e, err := r.dec.next(r.read)
	if err != nil {
		return graph.Edge{}, err
	}
	r.read++
	return e, nil
}

// Read decodes a whole graph.
func Read(r io.Reader) (*graph.Graph, error) {
	sr, err := NewReader(r)
	if err != nil {
		return nil, err
	}
	// Cap the initial allocation: the declared edge count is untrusted until
	// the body actually decodes, and a forged multi-billion count must not
	// translate into a giant up-front allocation. Real counts beyond the cap
	// just grow by appending.
	capHint := sr.NumEdges()
	if capHint > 1<<20 {
		capHint = 1 << 20
	}
	edges := make([]graph.Edge, 0, capHint)
	for {
		e, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		edges = append(edges, e)
	}
	return graph.New(sr.NumVertices(), edges), nil
}

// Sniff reports whether the reader's next bytes carry the graph-file magic,
// without consuming them. The reader must support Peek
// (bufio.Reader).
func Sniff(br *bufio.Reader) bool {
	head, err := br.Peek(4)
	if err != nil {
		return false
	}
	return SniffHeader(head)
}
