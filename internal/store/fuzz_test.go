package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/stream"
)

// fuzzEdgeLimit bounds what a fuzz target decodes: a few sealed bytes can
// declare billions of edges. FuzzDecodeBlock stops decoding at this limit;
// Read and stream.Collect materialize every edge and cannot stop part-way,
// so the targets that call them skip a file declaring more edges than this.
const fuzzEdgeLimit = 1 << 16

// declaresTooMany reports whether a graph file - payload first, magic
// included - declares more than fuzzEdgeLimit edges in a header that
// checkCounts accepts. Implausible counts still reach the decoder, which
// rejects them before sizing anything from them.
func declaresTooMany(file []byte) bool {
	if !SniffHeader(file) {
		return false
	}
	rest := file[len(magic3):]
	nv, n := binary.Uvarint(rest)
	if n <= 0 {
		return false
	}
	ne, m := binary.Uvarint(rest[n:])
	return m > 0 && ne > fuzzEdgeLimit && checkCounts(nv, ne) == nil
}

// FuzzRead checks the graph decoder never panics on arbitrary input and
// that any graph it accepts is structurally valid. Seeds: a valid file,
// checksum forgeries of it, the retired formats (which must be rejected by
// their magic), magic-only stubs and junk.
func FuzzRead(f *testing.F) {
	g := graph.New(4, []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 0}})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	// Checksum forgeries: payload flip, trailer flip, footer cut.
	for _, off := range []int{6, len(valid) - 20, len(valid) - 2} {
		forged := bytes.Clone(valid)
		forged[off] ^= 1
		f.Add(forged)
	}
	f.Add(valid[:len(valid)-footerLen])
	for _, lf := range legacyFixtures(f) {
		if !lf.result {
			f.Add(lf.data)
		}
	}
	f.Add([]byte("CGR1"))
	f.Add([]byte("CGR2"))
	f.Add([]byte("CGR3"))
	f.Add([]byte("junk data here"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaresTooMany(data) {
			return
		}
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("decoder accepted invalid graph: %v", err)
		}
	})
}

// FuzzReadCGR2 drives the run/interval body decoder (the encoding CGR3
// inherited from CGR2) directly. The fuzzed bytes are the header and body
// after the magic; the target puts the magic in front and seals the result
// under a valid trailer before Read, so mutation is never stopped by a
// checksum and always reaches the decoder. Its seeds forge the failure
// shapes unique to the run/interval layout - run lengths past the declared
// edge count, interval counts past the run remainder, out-of-range sources
// and targets, truncated interval tokens, overflowing varints in the
// packed header - so mutation starts from the interesting corners rather
// than random bytes.
func FuzzReadCGR2(f *testing.F) {
	// A valid body with runs, an interval and residuals.
	g := graph.New(16, []graph.Edge{
		{Src: 2, Dst: 3}, {Src: 2, Dst: 4}, {Src: 2, Dst: 5}, // interval
		{Src: 2, Dst: 1}, // residual, negative gap
		{Src: 5, Dst: 5}, // new run, self-loop
	})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		f.Fatal(err)
	}
	body := payloadOf(f, buf.Bytes())[len(magic3):]
	f.Add(body)
	for cut := 1; cut < 6; cut++ { // truncations inside tokens
		f.Add(body[:len(body)-cut])
	}
	h := func(nv, ne uint64) []byte { return header(nv, ne)[len(magic3):] }
	f.Add(h(4, 1<<60))                                                // forged edge count
	f.Add(h(1<<40, 0))                                                // forged vertex count
	f.Add(append(h(4, 2), byte(2<<4|2)))                              // run past edge count
	f.Add(append(h(8, 2), []byte{1<<4 | 1, 3, 0, 2}...))              // interval past run
	f.Add(append(h(4, 1), 0x80))                                      // truncated varint
	f.Add(append(h(4, 1), bytes.Repeat([]byte{0x80}, 11)...))         // varint overflow
	f.Add(append(h(8, 2), []byte{1<<4 | 1, 0, 0}...))                 // zero interval
	f.Add(h(4, 2))                                                    // body missing
	f.Add(append(h(4, 1), uvarints(zigzag(-3)<<4, zigzag(3)+1)...))   // run source below 0, target in range
	f.Add(append(h(4, 1), uvarints(zigzag(10)<<4, zigzag(-10)+1)...)) // run source past nv, target in range
	f.Add(append(h(4, 1), uvarints(zigzag(0)<<4, zigzag(100)+1)...))  // target past nv
	f.Add(append(h(3, 1), uvarints(zigzag(2)<<4, 0, 1)...))           // interval past nv
	f.Fuzz(func(t *testing.T, data []byte) {
		payload := append(append([]byte{}, magic3[:]...), data...)
		if declaresTooMany(payload) {
			return
		}
		got, err := Read(bytes.NewReader(seal(t, payload)))
		var ce *CorruptError
		if errors.As(err, &ce) || errors.Is(err, ErrBadMagic) {
			t.Fatalf("sealed payload rejected before the decoder: %v", err)
		}
		if err != nil {
			return
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("body decoder accepted invalid graph: %v", err)
		}
	})
}

// FuzzReadResult drives the result-file decoder: it must never panic, must
// reject truncated files, forged headers and id/k overflow, and anything it
// accepts must be internally consistent and round-trip bit-identically
// (decode -> encode reproduces a canonical file whose decode matches, and
// re-encoding that is a fixed point).
func FuzzReadResult(f *testing.F) {
	for _, k := range []int{1, 4, 64, 65, 128} {
		rs := metrics.NewReplicaSets(3, k)
		rs.Add(0, 0)
		rs.Add(2, k-1)
		sizes := make([]int64, k)
		sizes[0] = 2
		r := &Result{
			Algorithm: "CLUGP", Order: "bfs", K: k,
			NumVertices: 3, NumEdges: 2, Sizes: sizes, Replicas: rs,
		}
		var buf bytes.Buffer
		if err := WriteResult(&buf, r); err != nil {
			f.Fatal(err)
		}
		valid := buf.Bytes()
		f.Add(valid)
		f.Add(valid[:len(valid)-1])
		f.Add(valid[:len(valid)/2])
		// The retired CPR1 framing of the same result (the payload under
		// the CPR1 magic, no trailer), which must be rejected, and checksum
		// forgeries of the file: payload flip, trailer flip, footer cut.
		f.Add(append([]byte("CPR1"), payloadOf(f, valid)[4:]...))
		for _, off := range []int{5, len(valid) - footerLen + 1, len(valid) - 3} {
			forged := bytes.Clone(valid)
			forged[off] ^= 1
			f.Add(forged)
		}
	}
	f.Add([]byte("CPR1"))
	f.Add([]byte("CPR2"))
	f.Add(append([]byte("CPR1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Add([]byte("CGR1junk"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := ReadResult(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted: the decoded result must satisfy the writer's own
		// validation and re-encode canonically.
		var enc bytes.Buffer
		if err := WriteResult(&enc, got); err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		again, err := ReadResult(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("canonical re-encode does not decode: %v", err)
		}
		var enc2 bytes.Buffer
		if err := WriteResult(&enc2, again); err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
			t.Fatal("re-encoding is not a fixed point")
		}
	})
}

// FuzzReadResultBody drives the result body decoder directly, as
// FuzzReadCGR2 does the graph body decoder. The fuzzed bytes are the header
// and body after the magic; the target puts "CPR2" in front and seals them
// under a valid trailer, so mutation is never stopped by a checksum. Any
// accepted input must be canonical: WriteResult of the decoded result
// reproduces the sealed file byte for byte. Seeds: valid bodies across the
// word-count boundaries, forged headers, every overlong field and a
// truncated word.
func FuzzReadResultBody(f *testing.F) {
	body := func(payload []byte) []byte { return payload[len(resultMagic2):] }
	for _, k := range []int{1, 64, 65, 256} {
		valid := body(payloadOf(f, encodeResult(f, buildResult(f, k))))
		f.Add(valid)
		f.Add(valid[:len(valid)-1]) // last word truncated
	}
	wr := wordsResult(f)
	for _, field := range []string{"vertex count", "edge count", "partition count",
		"algorithm length", "order length", "size 0", "word 0", "word 1", "word 2", "word 3"} {
		f.Add(body(resultPayload(wr, field)))
	}
	long := body(resultPayload(wr, ""))
	f.Add(long[:len(long)-3]) // cut inside the 10-byte word
	for _, h := range [][3]uint64{{1 << 33, 1, 4}, {4, 1 << 57, 4}, {4, 1, 0}, {4, 1, maxK + 1}, {1 << 32, 0, 64}} {
		f.Add(uvarints(h[0], h[1], h[2]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := seal(t, append(append([]byte{}, resultMagic2[:]...), data...))
		got, err := ReadResult(bytes.NewReader(sealed))
		var ce *CorruptError
		if errors.As(err, &ce) || errors.Is(err, ErrBadResultMagic) {
			t.Fatalf("sealed payload rejected before the decoder: %v", err)
		}
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := WriteResult(&enc, got); err != nil {
			t.Fatalf("decoded result does not re-encode: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), sealed) {
			t.Fatalf("accepted a non-canonical file: re-encoding gives %d bytes, input was %d", enc.Len(), len(sealed))
		}
	})
}

// FuzzDecodeWords holds the split replica-word decoder to its oracle,
// refDecodeWords: a fuzzed body read in chunks of a fuzzed length (0
// meaning 64 KiB) and decoded as a fuzzed number of words in 1 to 8 parts
// gives the same words, cursor end and error text, and the split alone
// succeeds exactly when the body holds those words and nothing else.
// Seeded with wordCases' valid tables and forgeries, and with
// straddleCases' words cut by a chunk edge at every offset.
func FuzzDecodeWords(f *testing.F) {
	for _, k := range []int{1, 64, 65, 256} {
		for p, wc := range wordCases(k) {
			f.Add(wc.body, uint16(wc.n), uint8(p), uint8(p%3*5))
		}
	}
	for p, wc := range straddleCases() {
		// The cases put the edge straddleChunk bytes after two bytes the
		// fuzz body lacks.
		f.Add(wc.body, uint16(wc.n), uint8(p), uint8(straddleChunk-2))
	}
	f.Fuzz(func(t *testing.T, body []byte, n uint16, parts, chunk uint8) {
		nw := int(n) % (len(body) + 2)
		p := 1 + int(parts%8)
		ch := int(chunk)
		if ch == 0 {
			ch = sealedChunk
		}
		want := make([]uint64, nw)
		rc := mappedCursor(body)
		wantErr := refDecodeWords(want, &rc)
		got := make([]uint64, nw)
		fc := chunksOf(body, ch)
		c := fc.cursor(0)
		err := decodeWordsParts(got, fc, &c, p)
		checkSameDecode(t, "decodeWordsParts", got, want, int(c.abs()), rc.i, err, wantErr)
		at := make([]int64, p+1)
		for j := range at {
			at[j] = int64(len(body) * j / p)
		}
		exact := wantErr == nil && rc.i == len(body)
		if ok := decodeSplit(got, fc, at); ok != exact {
			t.Fatalf("split decode reports %v, the reference %v", ok, exact)
		}
	})
}

// FuzzSourcesAgree is differential: the sequential Reader, the mmap-backed
// MmapSource (mapped and in its read-at fallback) and ReaderAtSource (over
// whole reads and over three-byte dribbles) decode the same bytes through
// different cursors (buffered slice, mapped slice, pread windows), so on
// any input all five must agree - same accept/reject decision, same
// edges. One source accepting what another rejects would
// let a corrupt file produce different streams depending on how it was
// opened.
func FuzzSourcesAgree(f *testing.F) {
	g := graph.New(6, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 4, Dst: 0},
	})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)-2])
	forged := bytes.Clone(valid)
	forged[7] ^= 1 // payload flip under an intact trailer
	f.Add(forged)
	f.Add([]byte("CGR2junk"))
	f.Add([]byte("CGR3junk"))
	for _, lf := range legacyFixtures(f) {
		if !lf.result && strings.HasSuffix(lf.name, " sealed") {
			f.Add(lf.data) // retired magic under a valid trailer
		}
	}
	// Decoder-level rejections under a valid trailer: a truncated body and
	// a run past the declared edge count.
	payload := payloadOf(f, valid)
	f.Add(seal(f, payload[:len(payload)-1]))
	f.Add(seal(f, append(header(4, 2), byte(2<<4|2))))
	f.Fuzz(func(t *testing.T, data []byte) {
		if declaresTooMany(data) {
			return
		}
		fromReader, readerErr := Read(bytes.NewReader(data))

		path := filepath.Join(t.TempDir(), "f.cgr")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Skip(err)
		}
		names := []string{"reader"}
		streams := [][]graph.Edge{nil}
		errs := []error{readerErr}
		if readerErr == nil {
			streams[0] = fromReader.Edges
		}
		for _, bc := range backendCases() {
			var edges []graph.Edge
			src, err := bc.open(path)
			if err == nil {
				edges, err = stream.Collect(src)
				src.Close()
			}
			names = append(names, bc.name)
			streams = append(streams, edges)
			errs = append(errs, err)
		}
		for i := 1; i < len(names); i++ {
			if (errs[i] == nil) != (readerErr == nil) {
				t.Fatalf("sources disagree on acceptance: %s=%v %s=%v", names[0], readerErr, names[i], errs[i])
			}
			if readerErr != nil {
				continue
			}
			if len(streams[i]) != len(streams[0]) {
				t.Fatalf("edge counts disagree: %s=%d %s=%d", names[0], len(streams[0]), names[i], len(streams[i]))
			}
			for j := range streams[0] {
				if streams[i][j] != streams[0][j] {
					t.Fatalf("edge %d disagrees: %s=%v %s=%v", j, names[0], streams[0][j], names[i], streams[i][j])
				}
			}
		}
	})
}

// FuzzReadCGR3 drives the checksummed graph path end to end: open, stream,
// Verify. Nothing may panic, and the integrity contract must hold -
// a CGR3 stream that completes successfully has proven every payload block,
// so Verify on the same source must also succeed.
func FuzzReadCGR3(f *testing.F) {
	g := graph.New(8, []graph.Edge{
		{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 0, Dst: 3}, {Src: 5, Dst: 4},
	})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	for _, off := range []int{4, 9, len(valid) - footerLen - 1, len(valid) - footerLen + 3, len(valid) - 1} {
		forged := bytes.Clone(valid)
		forged[off] ^= 0x20
		f.Add(forged)
	}
	f.Add(valid[:len(valid)-footerLen])
	f.Add(valid[:len(valid)-1])
	// The vertex count spelled overlong, which the header decoder refuses.
	payload := payloadOf(f, valid)
	f.Add(seal(f, append(spellLong(append([]byte{}, magic3[:]...), 8), payload[len(header(8, 4))-1:]...)))
	f.Fuzz(func(t *testing.T, data []byte) {
		src, err := OpenReaderAt(byteReaderAt(data), int64(len(data)), "fuzz")
		if err != nil {
			return
		}
		defer src.Close()
		_, collectErr := stream.Collect(src)
		if collectErr == nil {
			if err := src.Verify(); err != nil {
				t.Fatalf("stream completed but Verify fails: %v", err)
			}
		}
	})
}
