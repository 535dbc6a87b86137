package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/stream"
)

// multiBlockGraph is sized so its CGR3 payload spans several checksum
// blocks (>64 KiB per block), exercising the block grid rather than the
// single-block degenerate case.
func multiBlockGraph() *graph.Graph {
	return gen.Web(gen.WebConfig{N: 60000, OutDegree: 6, IntraSite: 0.7, Seed: 21})
}

// TestChecksummedVerify: Verify proves a clean file on every backend, and
// the decoded stream matches the written edges exactly.
func TestChecksummedVerify(t *testing.T) {
	g := multiBlockGraph()
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			src, err := bc.open(writeTemp(t, g))
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			if err := src.Verify(); err != nil {
				t.Fatalf("Verify on a clean file: %v", err)
			}
			got := collect(t, src)
			if len(got) != len(g.Edges) {
				t.Fatalf("decoded %d edges, wrote %d", len(got), len(g.Edges))
			}
			for i := range got {
				if got[i] != g.Edges[i] {
					t.Fatalf("edge %d: got %v, want %v", i, got[i], g.Edges[i])
				}
			}
		})
	}
}

// TestBitFlipDetected: flipping any single bit - header, early payload,
// late payload, trailer, footer - makes every backend fail the open or the
// stream; no flipped file ever streams to completion successfully.
func TestBitFlipDetected(t *testing.T) {
	g := multiBlockGraph()
	ref := writeTemp(t, g)
	clean, err := os.ReadFile(ref)
	if err != nil {
		t.Fatal(err)
	}
	offsets := []int{
		5,                                  // header counts
		100,                                // first payload block
		len(clean) / 2,                     // middle payload block
		int(cleanPayloadLen(t, clean)) - 2, // last payload bytes
		int(cleanPayloadLen(t, clean)) + 6, // trailer
		len(clean) - 3,                     // footer
	}
	for _, bc := range backendCases() {
		for _, off := range offsets {
			flipped := bytes.Clone(clean)
			flipped[off] ^= 0x10
			path := filepath.Join(t.TempDir(), "flip.cgr")
			if err := os.WriteFile(path, flipped, 0o644); err != nil {
				t.Fatal(err)
			}
			src, err := bc.open(path)
			if err != nil {
				continue // rejected at open: detected
			}
			if _, err := stream.Collect(src); err == nil {
				t.Errorf("%s: bit flip at byte %d streamed without error", bc.name, off)
			}
			src.Close()
		}
	}
}

// cleanPayloadLen parses the payload length out of a checksummed file's
// footer.
func cleanPayloadLen(t *testing.T, data []byte) int64 {
	t.Helper()
	g, err := parseTrailer(byteReaderAt(data), int64(len(data)), "clean")
	if err != nil {
		t.Fatal(err)
	}
	return g.payloadLen
}

// TestVerifyFileReportsFirstCorruptBlock: a deliberately bit-flipped
// fixture is reported as corrupt with the exact block the first flipped
// byte lives in - the contract graphstat -verify exposes to operators.
func TestVerifyFileReportsFirstCorruptBlock(t *testing.T) {
	g := multiBlockGraph()
	path := writeTemp(t, g)
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	info, err := VerifyFile(path)
	if err != nil {
		t.Fatalf("clean file: %v", err)
	}
	if info.Kind != "CGR3" || info.Blocks < 2 {
		t.Fatalf("clean file info = %+v, want CGR3 with >=2 blocks", info)
	}

	// Flip one byte in block 1 and one in a later block: the report must
	// name block 1.
	flipped := bytes.Clone(clean)
	flipped[checksumBlockSize+123] ^= 1
	flipped[2*checksumBlockSize+45] ^= 1
	if err := os.WriteFile(path, flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = VerifyFile(path)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("flipped file: got %v, want *CorruptError", err)
	}
	if ce.Block != 1 {
		t.Fatalf("first corrupt block reported as %d, want 1", ce.Block)
	}
}

// TestEveryPrefixTruncationRejected: the torn-write matrix. Every proper
// prefix of a valid graph file must be rejected - at open or by the time
// the stream completes - on every backend and by the sequential reader;
// and every proper prefix of a valid result file must be rejected by
// ReadResult.
func TestEveryPrefixTruncationRejected(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 200, OutDegree: 3, Seed: 8})
	var buf bytes.Buffer
	if err := Write(&buf, g); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	t.Run("CGR3", func(t *testing.T) {
		dir := t.TempDir()
		for cut := 0; cut < len(full); cut++ {
			path := filepath.Join(dir, "cut.cgr")
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			for _, bc := range backendCases() {
				src, err := bc.open(path)
				if err != nil {
					continue
				}
				if _, err := stream.Collect(src); err == nil {
					t.Fatalf("%s: prefix of %d/%d bytes streamed without error", bc.name, cut, len(full))
				}
				src.Close()
			}
			if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
				t.Fatalf("prefix of %d/%d bytes Read without error", cut, len(full))
			}
		}
	})

	enc := encodeResult(t, buildResult(t, 32))
	t.Run("CPR2", func(t *testing.T) {
		for cut := 0; cut < len(enc); cut++ {
			if _, err := ReadResult(bytes.NewReader(enc[:cut])); err == nil {
				t.Fatalf("result prefix of %d/%d bytes accepted", cut, len(enc))
			}
		}
	})
}

// TestResultChecksums: CPR2 round-trips and self-verifies, the payload
// without its trailer is rejected, and a bit flip anywhere in the file
// rejects.
func TestResultChecksums(t *testing.T) {
	r := buildResult(t, 64)
	enc := encodeResult(t, r)

	got, err := ReadResult(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Verify(); err != nil {
		t.Fatalf("Verify on a decoded result: %v", err)
	}

	if _, err := ReadResult(bytes.NewReader(payloadOf(t, enc))); err == nil {
		t.Fatal("result payload without its trailer accepted")
	}

	for off := 0; off < len(enc); off += 7 {
		flipped := bytes.Clone(enc)
		flipped[off] ^= 0x08
		if _, err := ReadResult(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("bit flip at byte %d of a CPR2 result accepted", off)
		}
	}
}

// seal writes payload - magic, header and body, any bytes at all - under a
// valid integrity trailer. A forged payload sealed this way gets past the
// CRC and trailer checks, so what rejects it is the decoder's own range,
// count and overflow guards.
func seal(t testing.TB, payload []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	cw := newCRCWriter(&buf)
	if _, err := cw.Write(payload); err != nil {
		t.Fatal(err)
	}
	if err := cw.writeTrailer(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// payloadOf strips the integrity trailer and footer from a valid file.
func payloadOf(t testing.TB, data []byte) []byte {
	t.Helper()
	g, err := parseTrailer(byteReaderAt(data), int64(len(data)), "payload")
	if err != nil {
		t.Fatal(err)
	}
	return data[:g.payloadLen]
}

// wantDecodeError fails unless err is a rejection by the decoder itself:
// non-nil, and neither a *CorruptError (a CRC or trailer check) nor
// ErrBadMagic, either of which would mask a missing decoder guard.
func wantDecodeError(t *testing.T, name string, err error) {
	t.Helper()
	var ce *CorruptError
	switch {
	case err == nil:
		t.Errorf("%s: accepted", name)
	case errors.As(err, &ce):
		t.Errorf("%s: rejected by the integrity layer, not the decoder: %v", name, err)
	case errors.Is(err, ErrBadMagic), errors.Is(err, ErrBadResultMagic):
		t.Errorf("%s: rejected by magic, not the decoder: %v", name, err)
	}
}

// legacyFixture is a file in a retired format.
type legacyFixture struct {
	name   string
	data   []byte
	result bool // a saved result (CPR1) rather than a graph
}

// legacyFixtures builds files in the retired formats: CGR1 (per-edge
// zig-zag source gap and target offset), CGR2 (the CGR3 payload under its
// own magic, no trailer) and CPR1 (the CPR2 payload under its own magic,
// no trailer). Each comes bare, as the old writers produced it, and sealed
// under a valid trailer, so a rejection cannot come from the integrity
// layer alone.
func legacyFixtures(t testing.TB) []legacyFixture {
	t.Helper()
	g := graph.New(6, []graph.Edge{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 4, Dst: 3}})
	var tmp [binary.MaxVarintLen64]byte
	cgr1 := []byte("CGR1")
	for _, x := range []int{g.NumVertices, g.NumEdges()} {
		cgr1 = append(cgr1, tmp[:binary.PutUvarint(tmp[:], uint64(x))]...)
	}
	prevSrc := int64(0)
	for _, e := range g.Edges {
		cgr1 = append(cgr1, tmp[:binary.PutVarint(tmp[:], int64(e.Src)-prevSrc)]...)
		cgr1 = append(cgr1, tmp[:binary.PutVarint(tmp[:], int64(e.Dst)-int64(e.Src))]...)
		prevSrc = int64(e.Src)
	}
	var cgr3 bytes.Buffer
	if err := Write(&cgr3, g); err != nil {
		t.Fatal(err)
	}
	cgr2 := append([]byte("CGR2"), payloadOf(t, cgr3.Bytes())[4:]...)
	cpr1 := append([]byte("CPR1"), payloadOf(t, encodeResult(t, buildResult(t, 4)))[4:]...)
	return []legacyFixture{
		{"CGR1", cgr1, false}, {"CGR1 sealed", seal(t, cgr1), false},
		{"CGR2", cgr2, false}, {"CGR2 sealed", seal(t, cgr2), false},
		{"CPR1", cpr1, true}, {"CPR1 sealed", seal(t, cpr1), true},
	}
}

// TestLegacyFormatsRejected pins the removal of CGR1, CGR2 and CPR1: every
// reader rejects them by their magic, the sniffers do not recognize them,
// and the error names the format that is read.
func TestLegacyFormatsRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy")
	for _, lf := range legacyFixtures(t) {
		if err := os.WriteFile(path, lf.data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyFile(path); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s: VerifyFile: got %v, want ErrBadMagic", lf.name, err)
		}
		if SniffHeader(lf.data) || SniffResultHeader(lf.data) {
			t.Errorf("%s: sniffed as a current format", lf.name)
		}
		if lf.result {
			if _, err := ReadResult(bytes.NewReader(lf.data)); !errors.Is(err, ErrBadResultMagic) {
				t.Errorf("%s: ReadResult: got %v, want ErrBadResultMagic", lf.name, err)
			}
			continue
		}
		if _, err := Read(bytes.NewReader(lf.data)); !errors.Is(err, ErrBadMagic) {
			t.Errorf("%s: Read: got %v, want ErrBadMagic", lf.name, err)
		}
		for _, bc := range backendCases() {
			if _, err := bc.open(path); !errors.Is(err, ErrBadMagic) {
				t.Errorf("%s: %s: got %v, want ErrBadMagic", lf.name, bc.name, err)
			}
		}
	}
	for err, want := range map[error]string{ErrBadMagic: "CGR3", ErrBadResultMagic: "CPR2"} {
		if msg := err.Error(); !strings.Contains(msg, want) || strings.Contains(msg, "CGR1") ||
			strings.Contains(msg, "CGR2") || strings.Contains(msg, "CPR1") {
			t.Errorf("error %q should name %s and no retired format", msg, want)
		}
	}
}

// TestAtomicWriter: Commit publishes the full content and cleans up the
// temp file; Abort leaves the final path exactly as it was; a writer
// abandoned mid-write never disturbs the final path.
func TestAtomicWriter(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.bin")

	w, err := NewAtomicWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("hello ")); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write([]byte("world")); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	w.Abort() // post-Commit Abort is a no-op
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("committed file = %q, %v", got, err)
	}

	// Abort: the previous content survives, and no temp files linger.
	w2, err := NewAtomicWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w2.Write([]byte("partial garbage")); err != nil {
		t.Fatal(err)
	}
	w2.Abort()
	if _, err := w2.Write([]byte("more")); err == nil {
		t.Fatal("write after Abort accepted")
	}
	got, err = os.ReadFile(path)
	if err != nil || string(got) != "hello world" {
		t.Fatalf("after abort, file = %q, %v; want previous content", got, err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("directory holds %d entries after commit+abort, want 1", len(ents))
	}
}
