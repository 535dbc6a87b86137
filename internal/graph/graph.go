// Package graph provides the core directed-graph types used throughout the
// CLUGP reproduction: edges, in-memory edge lists, degree bookkeeping and
// compressed sparse row (CSR) adjacency built from edge lists.
//
// Graphs are deliberately simple: a Graph is an edge list plus a vertex
// count. Everything downstream (streaming clustering, partitioning, the GAS
// engine) consumes edges as a stream, so the edge list is the natural
// canonical form. CSR views are built on demand for BFS ordering and for the
// distributed engine.
package graph

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// VertexID identifies a vertex. Web graphs in the paper reach 118M vertices;
// uint32 is sufficient for this reproduction's laptop-scale stand-ins while
// halving memory traffic relative to int64.
type VertexID uint32

// Edge is a directed edge from Src to Dst.
type Edge struct {
	Src, Dst VertexID
}

// Graph is a directed multigraph stored as an edge list.
// Self-loops and parallel edges are permitted (real crawls contain both);
// algorithms that care filter them explicitly.
type Graph struct {
	// NumVertices is one greater than the largest vertex id.
	NumVertices int
	// Edges in their canonical (generation or file) order.
	Edges []Edge
}

// New returns a graph over the given edges. The vertex count is inferred
// from the largest endpoint if n <= 0.
func New(n int, edges []Edge) *Graph {
	if n <= 0 {
		for _, e := range edges {
			if int(e.Src) >= n {
				n = int(e.Src) + 1
			}
			if int(e.Dst) >= n {
				n = int(e.Dst) + 1
			}
		}
	}
	return &Graph{NumVertices: n, Edges: edges}
}

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.Edges) }

// Degrees returns the total (in+out) degree of every vertex.
// Vertex-cut partitioning treats the graph as its underlying undirected
// multigraph for degree purposes, matching the paper's deg[] array.
func (g *Graph) Degrees() []uint32 {
	deg := make([]uint32, g.NumVertices)
	for _, e := range g.Edges {
		deg[e.Src]++
		deg[e.Dst]++
	}
	return deg
}

// MaxDegree returns the maximum total degree, or 0 for an empty graph.
func (g *Graph) MaxDegree() uint32 {
	var max uint32
	for _, d := range g.Degrees() {
		if d > max {
			max = d
		}
	}
	return max
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	edges := make([]Edge, len(g.Edges))
	copy(edges, g.Edges)
	return &Graph{NumVertices: g.NumVertices, Edges: edges}
}

// Validate checks structural invariants: every endpoint within range.
func (g *Graph) Validate() error {
	for i, e := range g.Edges {
		if int(e.Src) >= g.NumVertices || int(e.Dst) >= g.NumVertices {
			return fmt.Errorf("graph: edge %d (%d->%d) out of range (n=%d)", i, e.Src, e.Dst, g.NumVertices)
		}
	}
	return nil
}

// WriteEdgeList writes the graph as "src dst" lines, the interchange format
// accepted by the cmd/clugp tool (and by SNAP, WebGraph ASCII dumps, etc.).
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	var buf []byte
	for _, e := range g.Edges {
		buf = buf[:0]
		buf = strconv.AppendUint(buf, uint64(e.Src), 10)
		buf = append(buf, ' ')
		buf = strconv.AppendUint(buf, uint64(e.Dst), 10)
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadEdgeList parses "src dst" lines. Lines starting with '#' or '%' are
// comments. Blank lines are skipped.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	var edges []Edge
	n := 0
	line := 0
	for sc.Scan() {
		line++
		s := sc.Text()
		if len(s) == 0 || s[0] == '#' || s[0] == '%' {
			continue
		}
		u, v, err := parsePair(s)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", line, err)
		}
		edges = append(edges, Edge{Src: VertexID(u), Dst: VertexID(v)})
		if int(u) >= n {
			n = int(u) + 1
		}
		if int(v) >= n {
			n = int(v) + 1
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return &Graph{NumVertices: n, Edges: edges}, nil
}

func parsePair(s string) (uint32, uint32, error) {
	i := 0
	for i < len(s) && (s[i] == ' ' || s[i] == '\t') {
		i++
	}
	j := i
	for j < len(s) && s[j] != ' ' && s[j] != '\t' && s[j] != ',' {
		j++
	}
	u, err := strconv.ParseUint(s[i:j], 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad src %q", s[i:j])
	}
	for j < len(s) && (s[j] == ' ' || s[j] == '\t' || s[j] == ',') {
		j++
	}
	k := j
	for k < len(s) && s[k] != ' ' && s[k] != '\t' {
		k++
	}
	v, err := strconv.ParseUint(s[j:k], 10, 32)
	if err != nil {
		return 0, 0, fmt.Errorf("bad dst %q", s[j:k])
	}
	return uint32(u), uint32(v), nil
}

// DegreeHistogram returns the number of vertices at each total degree,
// as sorted (degree, count) pairs. Degree-0 vertices are included.
func (g *Graph) DegreeHistogram() (degrees []uint32, counts []int) {
	hist := make(map[uint32]int)
	for _, d := range g.Degrees() {
		hist[d]++
	}
	degrees = make([]uint32, 0, len(hist))
	for d := range hist {
		degrees = append(degrees, d)
	}
	sort.Slice(degrees, func(i, j int) bool { return degrees[i] < degrees[j] })
	counts = make([]int, len(degrees))
	for i, d := range degrees {
		counts[i] = hist[d]
	}
	return degrees, counts
}
