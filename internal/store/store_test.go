package store

import (
	"bytes"
	"encoding/binary"
	"errors"
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
	if !SniffHeader(buf.Bytes()) {
		t.Fatal("SniffHeader missed own format")
	}
	if SniffHeader([]byte("0 1\n")) {
		t.Fatal("SniffHeader false positive on text")
	}
	if SniffHeader(nil) {
		t.Fatal("SniffHeader true on empty input")
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

// spellLong appends x spelled one byte longer than canonical: its last byte
// gains a continuation bit and a zero byte follows.
func spellLong(b []byte, x uint64) []byte {
	b = binary.AppendUvarint(b, x)
	b[len(b)-1] |= 0x80
	return append(b, 0)
}

// TestHeaderRejectsOverlongVarint: a CGR3 header count has one accepted
// spelling, as every field of CPR2 and CPK2 has, through Read and every
// file source - the read-at ones refill their window inside the header,
// the dribbling one after every three bytes. The canonical file is
// accepted by each, so the refusals are the field decoder's.
func TestHeaderRejectsOverlongVarint(t *testing.T) {
	body := encodePayload(t, 4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 2, Dst: 3}})[len(header(4, 2)):]
	magic := magic3[:len(magic3):len(magic3)]
	path := filepath.Join(t.TempDir(), "g.cgr")
	for field, head := range map[string][]byte{
		"":             header(4, 2),
		"vertex count": binary.AppendUvarint(spellLong(magic, 4), 2),
		"edge count":   spellLong(binary.AppendUvarint(magic, 4), 2),
	} {
		file := seal(t, append(head, body...))
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Read(bytes.NewReader(file))
		names, errs := []string{"Read"}, []error{err}
		for _, bc := range backendCases() {
			src, err := bc.open(path)
			if err == nil {
				src.Close()
			}
			names, errs = append(names, bc.name), append(errs, err)
		}
		for i, err := range errs {
			if field == "" && err != nil {
				t.Errorf("canonical header: %s: %v", names[i], err)
			}
			if field != "" && !errors.Is(err, errVarintOverlong) {
				t.Errorf("overlong %s: %s: got %v, want an overlong-varint error", field, names[i], err)
			}
		}
	}
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
