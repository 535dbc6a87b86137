package store

import (
	"bytes"
	"encoding/binary"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

// The tests in this file pin the run/interval/residual body encoding CGR3
// inherited from the retired CGR2 format, hence their names.

// cgr2RoundTrip encodes g and decodes it back, failing on any difference
// in shape or edge order.
func cgr2RoundTrip(t *testing.T, name string, g *graph.Graph) {
	t.Helper()
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatalf("%s: write: %v", name, err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("%s: read: %v", name, err)
	}
	if back.NumVertices != g.NumVertices || back.NumEdges() != g.NumEdges() {
		t.Fatalf("%s: shape %d/%d, want %d/%d", name, back.NumVertices, back.NumEdges(), g.NumVertices, g.NumEdges())
	}
	for i := range g.Edges {
		if back.Edges[i] != g.Edges[i] {
			t.Fatalf("%s: edge %d changed: %v vs %v (order must be preserved)", name, i, back.Edges[i], g.Edges[i])
		}
	}
}

func TestCGR2RoundTrip(t *testing.T) {
	cgr2RoundTrip(t, "web", gen.Web(gen.WebConfig{N: 5000, OutDegree: 6, IntraSite: 0.85, Seed: 1}))
}

// TestCGR2RoundTripAdversarial pins the body codec on the shapes most likely
// to break a run/interval coder: ids at the top of the int32 range, giant
// runs that overflow the packed header's inline length, intervals that wrap
// the whole run, descending targets, self-loops, duplicates.
func TestCGR2RoundTripAdversarial(t *testing.T) {
	const maxID = 1<<31 - 1
	longRun := make([]graph.Edge, 100) // one run far beyond the 15-edge inline header
	for i := range longRun {
		longRun[i] = graph.Edge{Src: 7, Dst: graph.VertexID(i)} // also one long interval
	}
	descending := make([]graph.Edge, 50)
	for i := range descending {
		descending[i] = graph.Edge{Src: 3, Dst: graph.VertexID(99 - i)} // gaps of -1, never intervals
	}
	cases := map[string]*graph.Graph{
		"empty":         graph.New(3, nil),
		"no-vertices":   graph.New(0, nil),
		"single-vertex": graph.New(1, nil),
		"single-edge":   graph.New(2, []graph.Edge{{Src: 1, Dst: 0}}),
		"self-loop":     graph.New(1, []graph.Edge{{Src: 0, Dst: 0}}),
		"long-run":      graph.New(100, longRun),
		"descending":    graph.New(100, descending),
		"max-int32-ids": graph.New(maxID+1, []graph.Edge{
			{Src: maxID, Dst: 0},
			{Src: 0, Dst: maxID},
			{Src: maxID, Dst: maxID},
			{Src: maxID - 1, Dst: 1},
		}),
		"interval-at-run-start": graph.New(10, []graph.Edge{
			{Src: 4, Dst: 5}, {Src: 4, Dst: 6}, {Src: 4, Dst: 7}, // 5,6,7 = src+1...
		}),
		"interval-to-top": graph.New(4, []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, // interval ends at nv-1
		}),
		"sawtooth": graph.New(1000, []graph.Edge{
			{Src: 999, Dst: 0}, {Src: 0, Dst: 999}, {Src: 500, Dst: 500},
			{Src: 999, Dst: 999}, {Src: 0, Dst: 0},
		}),
		"duplicates": graph.New(2, []graph.Edge{
			{Src: 0, Dst: 1}, {Src: 0, Dst: 1}, {Src: 0, Dst: 1},
		}),
	}
	for name, g := range cases {
		cgr2RoundTrip(t, name, g)
	}
}

func TestCGR2QuickRoundTrip(t *testing.T) {
	check := func(raw []uint16, nRaw uint8) bool {
		nv := int(nRaw)%100 + 2
		edges := make([]graph.Edge, 0, len(raw))
		for _, r := range raw {
			edges = append(edges, graph.Edge{
				Src: graph.VertexID(int(r>>8) % nv),
				Dst: graph.VertexID(int(r) % nv),
			})
		}
		g := graph.New(nv, edges)
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		if back.NumVertices != nv || back.NumEdges() != len(edges) {
			return false
		}
		for i := range edges {
			if edges[i] != back.Edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCGR2IntervalCollapse pins the interval coding itself: a run of
// consecutive targets must cost O(1) tokens, not O(n) gaps.
func TestCGR2IntervalCollapse(t *testing.T) {
	edges := make([]graph.Edge, 10000)
	for i := range edges {
		edges[i] = graph.Edge{Src: 0, Dst: graph.VertexID(i + 1)}
	}
	g := graph.New(10002, edges)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	// Header + one run header + one interval token: far under a byte/edge.
	if n := len(payloadOf(t, buf.Bytes())); n > 64 {
		t.Fatalf("10000 consecutive targets took %d bytes, want O(1) interval coding", n)
	}
	cgr2RoundTrip(t, "interval-collapse", g)
}

// TestCGR2CorruptInputsRejected forges the failure shapes specific to the
// run/interval layout: run lengths past the declared edge count, interval
// counts past the run remainder, out-of-range sources and targets,
// truncated tokens, varint overflows. Each payload is sealed under a valid
// trailer, so only the decoder's guards can reject it.
func TestCGR2CorruptInputsRejected(t *testing.T) {
	cases := map[string][]byte{
		// Declared counts beyond any physical file.
		"forged-edge-count":   header(4, 1<<60),
		"forged-vertex-count": header(1<<40, 0),
		// Header only; body missing entirely.
		"truncated-empty-body": header(4, 2),
		// Run header declares 3 targets but the file declares 2 edges.
		"run-past-edge-count": append(header(4, 2), uvarints(zigzag(0)<<4|2)...),
		// Run of 2, then an interval of 2 when only the run's 2 remain but
		// one was consumed: interval count 2 > runLeft 1 after first target.
		"interval-past-run": append(header(8, 2), append(uvarints(zigzag(0)<<4|1), uvarints(3, 0, 2)...)...),
		// Source gap lands outside [0, nv).
		// The target lands back on vertex 1, so only the source guard
		// can reject the edge.
		"run-source-negative": append(header(4, 1), uvarints(zigzag(-3)<<4|0, zigzag(3)+1)...),
		"run-source-too-big":  append(header(4, 1), uvarints(zigzag(10)<<4|0, zigzag(-10)+1)...),
		// Target gap lands outside [0, nv).
		"target-too-big": append(header(4, 1), uvarints(zigzag(0)<<4|0, zigzag(100)+1)...),
		// Interval runs past nv: src=2, interval of 1 -> dst=3 ok; nv=3 -> dst 3 out of range.
		"interval-past-nv": append(header(3, 1), uvarints(zigzag(2)<<4|0, 0, 1)...),
		// Token truncated mid-varint.
		"truncated-token": append(header(4, 1), 0x80),
		// Varint overflow in the run header.
		"overflow-header": append(header(4, 1), bytes.Repeat([]byte{0x80}, 11)...),
		// Interval count zero is never emitted and must be rejected.
		"zero-interval": append(header(8, 2), uvarints(zigzag(0)<<4|1, 0, 0)...),
	}
	for name, payload := range cases {
		_, err := Read(bytes.NewReader(seal(t, payload)))
		wantDecodeError(t, name, err)
	}
}

// TestWriteFormatDispatch: WriteFormat writes CGR3 and rejects every other
// value, including the retired CGR1 and CGR2 ones.
func TestWriteFormatDispatch(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 500, OutDegree: 4, Seed: 2})
	var buf bytes.Buffer
	if err := WriteFormat(&buf, g, FormatCGR3); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), []byte("CGR3")) || !SniffHeader(buf.Bytes()) {
		t.Fatalf("WriteFormat(CGR3) wrote magic %q", buf.Bytes()[:4])
	}
	if _, err := Read(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, f := range []Format{0, 1, 2, 9} {
		if err := WriteFormat(&bytes.Buffer{}, g, f); err == nil {
			t.Fatalf("format %s accepted", f)
		}
	}
	if SniffHeader([]byte("CGR9....")) {
		t.Fatal("SniffHeader accepted unknown magic")
	}
}

// uvarints encodes xs as consecutive unsigned varints.
func uvarints(xs ...uint64) []byte {
	var out []byte
	var tmp [binary.MaxVarintLen64]byte
	for _, x := range xs {
		out = append(out, tmp[:binary.PutUvarint(tmp[:], x)]...)
	}
	return out
}
