package store

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
	"repro/internal/xrand"
)

// refNext is the per-edge decoder that decodeBlock replaced, kept as the
// oracle it is checked against: it decodes the edge at stream index i,
// re-reading its run/interval state through d.st on every call.
func (d *decoder) refNext(i int) (graph.Edge, error) {
	st := &d.st
	// Mid-interval: the token was consumed whole, the state replays it.
	if st.ivLeft > 0 {
		return d.refStepInterval(i)
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
		return d.refStepInterval(i)
	}
	dst := st.prevDst + unzigzag(t-1)
	if dst < 0 || dst >= d.nv {
		return graph.Edge{}, fmt.Errorf("store: edge %d (%d->%d) out of range (n=%d)", i, st.prevSrc, dst, d.nv)
	}
	st.prevDst = dst
	st.runLeft--
	return graph.Edge{Src: graph.VertexID(st.prevSrc), Dst: graph.VertexID(dst)}, nil
}

// refStepInterval emits the next target of an in-flight interval token.
func (d *decoder) refStepInterval(i int) (graph.Edge, error) {
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

// dribbleReaderAt serves at most three bytes per ReadAt, without an error,
// as a Reader may: every read-at window it feeds is tiny, so refills land
// inside run headers, target tokens and interval counts, and a varint
// longer than three bytes decodes only if a refill keeps the bytes it
// already has.
type dribbleReaderAt []byte

func (d dribbleReaderAt) ReadAt(p []byte, off int64) (int, error) {
	if off < 0 || off >= int64(len(d)) {
		return 0, io.EOF
	}
	return copy(p[:min(len(p), 3)], d[off:]), nil
}

// encodePayload encodes edges over nv vertices as a CGR3 payload: magic,
// header and body, no trailer.
func encodePayload(t testing.TB, nv int, edges []graph.Edge) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(header(uint64(nv), uint64(len(edges))))
	vw := &varintWriter{bw: bufio.NewWriter(&buf)}
	if err := encodeBody(vw, edges); err != nil {
		t.Fatal(err)
	}
	if err := vw.bw.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// straddleEdges builds runs shaped for the block decoder's corners on nv
// vertices: intervals of every length from 2 up that cross block
// boundaries, interval counts of two and three varint bytes, run lengths
// on both sides of the packed header's 15-target limit, negative and
// long-distance target gaps, and far source jumps (multi-byte headers).
// With long set, two long intervals straddle edges 4096 and 8192, so they
// cross 4096- and BlockLen-edge block boundaries as well.
func straddleEdges(nv int, long bool) []graph.Edge {
	var edges []graph.Edge
	add := func(src, dst int) {
		edges = append(edges, graph.Edge{Src: graph.VertexID(src), Dst: graph.VertexID(dst)})
	}
	interval := func(src, from, n int) {
		for k := 0; k < n; k++ {
			add(src, from+k)
		}
	}
	// One run mixing intervals of growing length with residual targets.
	for c := 2; c <= 24; c++ {
		interval(5, 6+c*40, c)
		add(5, 3)
	}
	// Interval counts of two varint bytes, at the start of a run (targets
	// begin relative to the source) and mid-run.
	interval(9, 10, 200)
	add(9, 1)
	interval(9, 300, 130)
	// Far source jumps with far targets: multi-byte headers and gaps.
	rng := xrand.New(11)
	for _, src := range []int{nv - 2, 1, nv / 2, nv - 1, 0} {
		n := 1 + rng.Intn(40)
		for k := 0; k < n; k++ {
			add(src, rng.Intn(nv))
		}
		if src+2 < nv {
			interval(src, src+1, 3)
		}
	}
	// Run lengths 14..17 around the packed header's inline limit, and a
	// run of 300 single targets.
	for r := 14; r <= 17; r++ {
		for k := 0; k < r; k++ {
			add(20+r, 100+2*k)
		}
	}
	for k := 0; k < 300; k++ {
		add(40, (k*7919)%nv)
	}
	if long {
		for len(edges) < 4096-100 {
			add(51, rng.Intn(nv))
		}
		interval(52, 1000, 3000) // straddles edge 4096
		for len(edges) < stream.BlockLen-100 {
			add(53, rng.Intn(nv))
		}
		interval(54, 7000, 20000) // straddles edge 8192; a three-byte count
	}
	return edges
}

// forgedPayloads are payloads that reach each of decodeBlock's rejections:
// every token truncated, every range, count and overflow check tripped,
// target and interval faults after other targets of the same run, a run
// past the edge count starting mid-block, and intervals that leave
// [0, nv) on their first target and mid-fill (where the failing edge
// lands at each position in a block, for the block lengths checked).
func forgedPayloads() []decodeCase {
	body := func(nv, ne uint64, tokens ...uint64) []byte {
		return append(header(nv, ne), uvarints(tokens...)...)
	}
	cut := func(b []byte) []byte { return append(b, 0x80) }
	return []decodeCase{
		{"run header truncated", cut(header(4, 1)), nil},
		{"run header overflow", append(header(4, 1), bytes.Repeat([]byte{0x80}, 11)...), nil},
		{"run source below 0", body(4, 1, zigzag(-3)<<4, zigzag(3)+1), nil},
		{"run source past nv", body(4, 1, zigzag(10)<<4, zigzag(-10)+1), nil},
		{"run length truncated", cut(body(8, 20, 15)), nil},
		{"run length past edge count", body(1<<20, 40, 15, 1<<40), nil},
		{"run past edge count", body(4, 2, 2<<4|2), nil},
		{"run past edge count mid-block", body(8, 3, 0, zigzag(1)+1, 2), nil},
		{"target truncated", cut(body(4, 1, 0)), nil},
		{"target truncated mid-run", cut(body(8, 3, 2, zigzag(1)+1)), nil},
		{"target below 0", body(4, 1, 0, zigzag(-5)+1), nil},
		{"target past nv", body(4, 1, zigzag(0)<<4, zigzag(100)+1), nil},
		{"target past nv mid-run", body(8, 3, 2, zigzag(1)+1, zigzag(1)+1, zigzag(100)+1), nil},
		{"interval truncated", cut(body(8, 2, 1, 0)), nil},
		{"interval truncated mid-run", cut(body(8, 3, 2, zigzag(1)+1, 0)), nil},
		{"interval past run", body(8, 2, 1<<4|1, 3, 0, 2), nil},
		{"zero interval", body(8, 2, 1<<4|1, 0, 0), nil},
		{"interval past nv", body(3, 1, zigzag(1)<<4, 0, 1), nil},
		{"interval past nv mid-fill", body(40, 30, zigzag(28)<<4|15, 14, 0, 30), nil},
		{"interval past nv mid-fill+1", body(41, 30, zigzag(28)<<4|15, 14, 0, 30), nil},
	}
}

// decodeCase is a payload the block decoder is checked on and the stream
// indices it starts decoding from.
type decodeCase struct {
	name    string
	payload []byte
	starts  []int // nil: every start offset
}

// decodeBlockLens are the block lengths the checks cut the stream into:
// one edge, tiny odd blocks, half the streaming block and the streaming
// block.
var decodeBlockLens = []int{1, 2, 3, 7, 4096, stream.BlockLen}

// resumePoint is a decoder position between two edges: the byte offset of
// the next token and the delta-decoder state.
type resumePoint struct {
	off int64
	st  decState
}

// refDecode decodes the payload with refNext, up to limit edges. at[i] is
// the decoder position before edge i, for every decoded edge and the one
// after the last; err is the error at edge len(edges), if decoding failed.
func refDecode(t testing.TB, payload []byte, limit int) (edges []graph.Edge, at []resumePoint, err error) {
	t.Helper()
	d := decoder{cur: mappedCursor(payload)}
	d.cur.seek(int64(len(magic3)))
	if err := d.readHeader(); err != nil {
		return nil, nil, err
	}
	ne := int(d.ne)
	at = append(at, resumePoint{off: d.cur.abs()})
	for i := 0; i < min(ne, limit); i++ {
		e, err := d.refNext(i)
		if err != nil {
			return edges, at, err
		}
		edges = append(edges, e)
		at = append(at, resumePoint{off: d.cur.abs(), st: d.st})
	}
	return edges, at, nil
}

// checkBlockDecode decodes the payload with decodeBlock through cur - from
// each start in starts (nil: every offset the oracle reaches), in blocks
// of each length in lens, up to limit edges - and fails unless it matches
// refDecode: the same edges, the same end position and state, and on a
// rejection the same error text, from the block holding the failing edge.
func checkBlockDecode(t *testing.T, name string, payload []byte, cur cursor, starts, lens []int, limit int) {
	t.Helper()
	want, at, wantErr := refDecode(t, payload, limit)
	if at == nil {
		return // the header itself is rejected; decodeBlock never runs
	}
	d := decoder{cur: cur}
	d.cur.seek(int64(len(magic3)))
	if err := d.readHeader(); err != nil {
		t.Fatalf("%s: header rejected through this cursor only: %v", name, err)
	}
	ne := int(d.ne)
	end := len(want)
	if wantErr == nil {
		end = min(ne, limit)
	}
	if starts == nil {
		starts = make([]int, len(want)+1)
		for s := range starts {
			starts[s] = s
		}
	}
	buf := make([]graph.Edge, stream.BlockLen)
	for _, s := range starts {
		if s >= len(at) {
			continue
		}
		for _, l := range lens {
			d.seek(at[s].off, at[s].st)
			var gotErr error
			for i := s; i < end || (wantErr != nil && i == end); {
				n := min(l, min(ne, limit)-i)
				if gotErr = d.decodeBlock(buf[:n], i); gotErr != nil {
					// A failed block's contents are unspecified; the error
					// must come from the block holding the oracle's edge.
					if wantErr == nil || end < i || end >= i+n {
						t.Fatalf("%s: start %d, blocks of %d: block [%d,%d) failed: %v (oracle: %v at edge %d)",
							name, s, l, i, i+n, gotErr, wantErr, end)
					}
					break
				}
				for k := range buf[:n] {
					if buf[k] != want[i+k] {
						t.Fatalf("%s: start %d, blocks of %d: edge %d = %v, want %v", name, s, l, i+k, buf[k], want[i+k])
					}
				}
				i += n
			}
			switch {
			case wantErr != nil && gotErr == nil:
				t.Fatalf("%s: start %d, blocks of %d: accepted; oracle fails at edge %d: %v", name, s, l, end, wantErr)
			case wantErr != nil && gotErr.Error() != wantErr.Error():
				t.Fatalf("%s: start %d, blocks of %d: error %q, oracle %q", name, s, l, gotErr, wantErr)
			case wantErr == nil && (d.cur.abs() != at[end].off || d.st != at[end].st):
				t.Fatalf("%s: start %d, blocks of %d: ends at byte %d state %+v, oracle byte %d state %+v",
					name, s, l, d.cur.abs(), d.st, at[end].off, at[end].st)
			}
		}
	}
}

// decodeCursors are the cursors every check runs through: the mapped one,
// where every in-window varint takes the inline path, and a read-at window
// over dribbleReaderAt, where nearly every token sits at a window edge.
func decodeCursors(payload []byte) []struct {
	name string
	cur  cursor
} {
	return []struct {
		name string
		cur  cursor
	}{
		{"mapped", mappedCursor(payload)},
		{"dribble", readAtCursor(dribbleReaderAt(payload), int64(len(payload)))},
	}
}

// TestDecodeBlockMatchesReference holds decodeBlock to the per-edge
// oracle on generated web graphs and hand-built corner runs, for every
// block length in decodeBlockLens, through both cursor kinds, from every
// start offset on the small inputs and from the block boundaries on the
// large ones - and to the oracle's error text on truncated and forged
// payloads, from every start before the failing edge.
func TestDecodeBlockMatchesReference(t *testing.T) {
	web := func(n, deg int, seed uint64) []byte {
		g := gen.Web(gen.WebConfig{N: n, OutDegree: deg, IntraSite: 0.85, Seed: seed})
		return encodePayload(t, g.NumVertices, g.Edges)
	}
	bounds := []int{0, 1, 2, 4095, 4096, 4097, 5000, 8191, 8192, 8193, 12000}
	cases := []decodeCase{
		{"web-small", web(150, 5, 3), nil},
		{"straddle", encodePayload(t, 1<<31, straddleEdges(1<<31, false)), nil},
		{"straddle-small-ids", encodePayload(t, 2000, straddleEdges(2000, false)), nil},
		{"straddle-long", encodePayload(t, 1<<31, straddleEdges(1<<31, true)), bounds},
		{"web-large", web(6000, 6, 5), bounds},
	}
	valid := cases[0].payload
	for cut := 1; cut <= 4; cut++ {
		cases = append(cases, decodeCase{fmt.Sprintf("web-small cut %d", cut), valid[:len(valid)-cut], nil})
	}
	for _, c := range append(cases, forgedPayloads()...) {
		for _, dc := range decodeCursors(c.payload) {
			checkBlockDecode(t, c.name+"/"+dc.name, c.payload, dc.cur, c.starts, decodeBlockLens, 1<<30)
		}
	}
}

// FuzzDecodeBlock is differential: a fuzzed header and body, sealed under
// a valid trailer and cut into blocks of a fuzzed length, must decode
// through decodeBlock - over the mapped payload and over a dribbling
// read-at window - to exactly the oracle's edges, or fail with exactly the
// oracle's error text at the same edge. Seeds: a valid body with runs,
// intervals and residuals, the corner runs of straddleEdges, and
// forgedPayloads. Decoding stops after fuzzEdgeLimit edges, as a few bytes
// can declare billions.
func FuzzDecodeBlock(f *testing.F) {
	g := graph.New(16, []graph.Edge{
		{Src: 2, Dst: 3}, {Src: 2, Dst: 4}, {Src: 2, Dst: 5},
		{Src: 2, Dst: 1}, {Src: 5, Dst: 5},
	})
	valid := encodePayload(f, g.NumVertices, g.Edges)[len(magic3):]
	for _, l := range []uint16{1, 2, 3, 7} {
		f.Add(valid, l)
	}
	f.Add(valid[:len(valid)-2], uint16(2))
	f.Add(encodePayload(f, 1<<31, straddleEdges(1<<31, false))[len(magic3):], uint16(7))
	f.Add(encodePayload(f, 2000, straddleEdges(2000, false))[len(magic3):], uint16(3))
	for _, c := range forgedPayloads() {
		f.Add(c.payload[len(magic3):], uint16(3))
	}
	f.Fuzz(func(t *testing.T, body []byte, blockLen uint16) {
		payload := payloadOf(t, seal(t, append(append([]byte{}, magic3[:]...), body...)))
		l := 1 + int(blockLen)%stream.BlockLen
		for _, dc := range decodeCursors(payload) {
			checkBlockDecode(t, dc.name, payload, dc.cur, []int{0}, []int{l}, fuzzEdgeLimit)
		}
	})
}
