package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/gen"
	"repro/internal/graph"
)

func TestRoundTrip(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 5000, OutDegree: 6, IntraSite: 0.85, Seed: 1})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices != g.NumVertices || back.NumEdges() != g.NumEdges() {
		t.Fatalf("shape changed: %d/%d vs %d/%d", back.NumVertices, back.NumEdges(), g.NumVertices, g.NumEdges())
	}
	for i := range g.Edges {
		if g.Edges[i] != back.Edges[i] {
			t.Fatalf("edge %d changed: %v vs %v (order must be preserved)", i, g.Edges[i], back.Edges[i])
		}
	}
}

func TestCompressionBeatsText(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 20000, OutDegree: 8, IntraSite: 0.88, Seed: 2})
	var bin, txt bytes.Buffer
	if err := Write(&bin, g); err != nil {
		t.Fatal(err)
	}
	if err := g.WriteEdgeList(&txt); err != nil {
		t.Fatal(err)
	}
	ratio := float64(bin.Len()) / float64(txt.Len())
	if ratio > 0.35 {
		t.Fatalf("binary/text ratio %.2f, want < 0.35 (%d vs %d bytes)", ratio, bin.Len(), txt.Len())
	}
	perEdge := float64(bin.Len()) / float64(g.NumEdges())
	if perEdge > 4 {
		t.Fatalf("%.2f bytes/edge, want < 4 on a crawl-ordered web graph", perEdge)
	}
}

func TestStreamingReader(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 1000, OutDegree: 4, Seed: 3})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	sr, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if sr.NumVertices() != g.NumVertices || sr.NumEdges() != g.NumEdges() {
		t.Fatal("header mismatch")
	}
	for i := 0; ; i++ {
		e, err := sr.Next()
		if err == io.EOF {
			if i != g.NumEdges() {
				t.Fatalf("EOF after %d edges, want %d", i, g.NumEdges())
			}
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if e != g.Edges[i] {
			t.Fatalf("edge %d mismatch", i)
		}
	}
	// Next after EOF keeps returning EOF.
	if _, err := sr.Next(); err != io.EOF {
		t.Fatalf("post-EOF Next: %v", err)
	}
}

func TestBadInputs(t *testing.T) {
	if _, err := Read(strings.NewReader("not a graph")); err != ErrBadMagic {
		t.Fatalf("bad magic: %v", err)
	}
	if _, err := Read(strings.NewReader("")); err == nil {
		t.Fatal("empty input accepted")
	}
	g := gen.Web(gen.WebConfig{N: 100, OutDegree: 4, Seed: 4})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	// A torn file loses its trailer: the integrity layer rejects it.
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2])); err == nil {
		t.Fatal("truncated input accepted")
	}
	// A truncated body under a valid trailer gets past the checksums and
	// must be rejected by the decoder itself.
	payload := payloadOf(t, buf.Bytes())
	_, err := Read(bytes.NewReader(seal(t, payload[:len(payload)/2])))
	wantDecodeError(t, "sealed truncated body", err)
}

func TestCorruptRangeRejected(t *testing.T) {
	// Hand-craft a file whose edge points past the vertex count.
	small := graph.New(2, []graph.Edge{{Src: 0, Dst: 1}})
	var buf bytes.Buffer
	if err := Write(&buf, small); err != nil {
		t.Fatal(err)
	}
	big := graph.New(1000, []graph.Edge{{Src: 999, Dst: 999}})
	var buf2 bytes.Buffer
	if err := Write(&buf2, big); err != nil {
		t.Fatal(err)
	}
	// Splice: header of the small graph with the body of the big one,
	// sealed so only the decoder's range guard can reject it.
	spliced := append([]byte{}, payloadOf(t, buf.Bytes())[:6]...) // magic + nv=2 + ne=1
	spliced = append(spliced, payloadOf(t, buf2.Bytes())[7:]...)  // magic + nv=1000 + ne=1, then the run
	_, err := Read(bytes.NewReader(seal(t, spliced)))
	wantDecodeError(t, "out-of-range edge", err)
}

func TestSniff(t *testing.T) {
	g := graph.New(2, []graph.Edge{{Src: 0, Dst: 1}})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	if !Sniff(bufio.NewReader(&buf)) {
		t.Fatal("Sniff missed own format")
	}
	if Sniff(bufio.NewReader(strings.NewReader("0 1\n"))) {
		t.Fatal("Sniff false positive on text")
	}
	if Sniff(bufio.NewReader(strings.NewReader(""))) {
		t.Fatal("Sniff true on empty input")
	}
}

func TestEmptyGraph(t *testing.T) {
	g := graph.New(5, nil)
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumVertices != 5 || back.NumEdges() != 0 {
		t.Fatalf("empty graph mangled: %d/%d", back.NumVertices, back.NumEdges())
	}
}

// TestRoundTripAdversarial pins the format on the shapes most likely to
// break a delta codec: ids at the top of the int32 range (giant positive
// and negative gaps), self-loops (zero dst gap), a single vertex, an empty
// graph, and sawtooth source jumps.
func TestRoundTripAdversarial(t *testing.T) {
	const maxID = 1<<31 - 1 // math.MaxInt32, a valid VertexID
	cases := map[string]*graph.Graph{
		"empty":         graph.New(3, nil),
		"no-vertices":   graph.New(0, nil),
		"single-vertex": graph.New(1, nil),
		"self-loop":     graph.New(1, []graph.Edge{{Src: 0, Dst: 0}}),
		"max-int32-ids": graph.New(maxID+1, []graph.Edge{
			{Src: maxID, Dst: 0},
			{Src: 0, Dst: maxID},
			{Src: maxID, Dst: maxID},
			{Src: maxID - 1, Dst: 1},
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
				t.Fatalf("%s: edge %d changed: %v vs %v", name, i, back.Edges[i], g.Edges[i])
			}
		}
	}
}

// header hand-crafts a graph payload header with arbitrary declared
// counts; seal it (with any body) to get past the integrity checks.
func header(nv, ne uint64) []byte {
	buf := append([]byte{}, magic3[:]...)
	var tmp [binary.MaxVarintLen64]byte
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], nv)]...)
	buf = append(buf, tmp[:binary.PutUvarint(tmp[:], ne)]...)
	return buf
}

// TestImplausibleHeaderRejected: a forged edge or vertex count must be
// rejected (or fail cleanly at EOF) without sizing anything from it - the
// declared count reaches make() before a single edge is decoded.
func TestImplausibleHeaderRejected(t *testing.T) {
	cases := map[string][]byte{
		// Declared counts beyond any physical file: rejected at the header.
		"2^60 declared edges":    header(4, 1<<60),
		"2^40 declared vertices": header(1<<40, 0),
		// Large-but-plausible count with no body: must fail at EOF, not OOM
		// on the preallocation.
		"truncated 2^40-edge body": header(4, 1<<40),
	}
	for name, payload := range cases {
		_, err := Read(bytes.NewReader(seal(t, payload)))
		wantDecodeError(t, name, err)
	}
	// The streaming source applies the same guards, mapped or not.
	path := filepath.Join(t.TempDir(), "forged.cgr")
	if err := os.WriteFile(path, seal(t, header(4, 1<<60)), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, bc := range backendCases() {
		_, err := bc.open(path)
		wantDecodeError(t, bc.name+" forged header", err)
	}
}

// TestVarintOverflowRejected: a run header whose varint encoding overflows
// 64 bits, or whose source gap lands outside [0, numVertices), must
// surface as an error, never as a negative or wrapped vertex id.
func TestVarintOverflowRejected(t *testing.T) {
	uv := func(x uint64) []byte {
		var tmp [binary.MaxVarintLen64]byte
		return tmp[:binary.PutUvarint(tmp[:], x)]
	}
	overflow := bytes.Repeat([]byte{0x80}, 10) // 10 continuation bytes: > 64 bits
	overflow = append(overflow, 0x02)
	cases := map[string][]byte{
		"overflowing varint": append(header(4, 1), overflow...),
		// A giant negative source gap from src 0 wraps far below zero and
		// must be caught by the range guard.
		"negative vertex id": append(append(header(4, 1), uv(zigzag(-(1<<58))<<4)...), 1),
		// A giant positive gap lands beyond numVertices.
		"out-of-range vertex id": append(append(header(4, 1), uv(zigzag(1<<58)<<4)...), 1),
	}
	for name, payload := range cases {
		_, err := Read(bytes.NewReader(seal(t, payload)))
		wantDecodeError(t, name, err)
	}
}

func TestQuickRoundTrip(t *testing.T) {
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
