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
// edges.
//
// Saved results (CPR2, result.go) and checkpoints (CPK2, checkpoint.go)
// are sealed the same way. The three formats share one codec (sealed.go):
// the magic and counts that open every header, one whole-file reader that
// proves the trailer before any field decodes, and one canonical field
// decoder, so they differ only in their bodies and validation rules. The
// out-of-core sources over graph files are MmapSource (mapped, with a
// portable read-at fallback) and ReaderAtSource (any io.ReaderAt).
package store

import (
	"bufio"
	"errors"
	"io"
	"slices"

	"repro/internal/graph"
	"repro/internal/stream"
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
	if _, err := vw.bw.Write(appendHeader(nil, magic3, uint64(g.NumVertices), uint64(g.NumEdges()))); err != nil {
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

// Read decodes a whole graph. The trailer lives at EOF, out of reach of a
// forward-only reader, so the file is buffered and every payload block
// proven before the first edge decodes (readSealed); the seekable sources
// (OpenMmap, OpenReaderAt) verify lazily instead and are what the streaming
// path uses.
func Read(r io.Reader) (*graph.Graph, error) {
	f, err := readSealed(r, magic3, ErrBadMagic, "graph")
	if err != nil {
		return nil, err
	}
	dec := decoder{cur: f.cursor(int64(len(magic3)))}
	if err := dec.readHeader(); err != nil {
		return nil, err
	}
	nv, ne := int(dec.nv), int(dec.ne)
	// Cap the initial allocation: the declared edge count is untrusted until
	// the body actually decodes, and a forged multi-billion count must not
	// translate into a giant up-front allocation. Real counts beyond the cap
	// just grow, a block at a time, as the body decodes straight into the
	// edge slice.
	edges := make([]graph.Edge, 0, min(ne, 1<<20))
	for len(edges) < ne {
		at, n := len(edges), min(ne-len(edges), stream.BlockLen)
		edges = slices.Grow(edges, n)[:at+n]
		if err := dec.decodeBlock(edges[at:], at); err != nil {
			return nil, err
		}
	}
	return graph.New(nv, edges), nil
}
