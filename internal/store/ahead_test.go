package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
)

// coreOf returns the streaming core behind a root source.
func coreOf(t *testing.T, f File) *segCore {
	t.Helper()
	switch s := f.(type) {
	case *MmapSource:
		return &s.segCore
	case *ReaderAtSource:
		return &s.segCore
	}
	t.Fatalf("no segCore in %T", f)
	return nil
}

// withProcs runs fn at the given GOMAXPROCS, which decides whether a root
// source decodes inline (1) or ahead (2).
func withProcs(procs int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	fn()
}

// passBlocks makes one pass over src at procs, copying every block as it
// arrives, and returns the blocks, the error that ended the pass (nil at a
// clean EOF) and whether a decode goroutine served it.
func passBlocks(t *testing.T, src File, procs int) (blocks [][]graph.Edge, err error, ahead bool) {
	t.Helper()
	withProcs(procs, func() {
		if err = src.Reset(); err != nil {
			return
		}
		for {
			var blk []graph.Edge
			blk, err = src.NextBlock()
			if err != nil {
				break
			}
			blocks = append(blocks, slices.Clone(blk))
		}
		ahead = coreOf(t, src).run != nil
	})
	if err == io.EOF {
		err = nil
	}
	return blocks, err, ahead
}

// checkSamePass fails unless the ahead pass delivered exactly the inline
// pass's blocks - same count, same cut points, same edges - and ended in
// the same error.
func checkSamePass(t *testing.T, name string, inline, ahead [][]graph.Edge, inErr, ahErr error) {
	t.Helper()
	if len(ahead) != len(inline) {
		t.Fatalf("%s: ahead delivered %d blocks, inline %d", name, len(ahead), len(inline))
	}
	for i := range inline {
		if !slices.Equal(ahead[i], inline[i]) {
			t.Fatalf("%s: block %d differs (%d vs %d edges)", name, i, len(ahead[i]), len(inline[i]))
		}
	}
	if (inErr == nil) != (ahErr == nil) || (inErr != nil && inErr.Error() != ahErr.Error()) {
		t.Fatalf("%s: pass ended in %v ahead, %v inline", name, ahErr, inErr)
	}
}

// TestDecodeAheadMatchesInline: on every backend a root source streams the
// same blocks at GOMAXPROCS 1 (inline) and 2 (a decode goroutine), pass
// after pass and in either order, and the blocks are the written edges.
func TestDecodeAheadMatchesInline(t *testing.T) {
	g := multiBlockGraph()
	path := writeTemp(t, g)
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			src, err := bc.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			inline, inErr, on := passBlocks(t, src, 1)
			if inErr != nil || on {
				t.Fatalf("inline pass: err %v, decode goroutine %v", inErr, on)
			}
			if got := slices.Concat(inline...); !slices.Equal(got, g.Edges) {
				t.Fatalf("inline pass decoded %d edges, not the %d written", len(got), len(g.Edges))
			}
			for _, procs := range []int{2, 1, 2} {
				blocks, err, on := passBlocks(t, src, procs)
				if on != (procs == 2) {
					t.Fatalf("GOMAXPROCS %d: decode goroutine %v", procs, on)
				}
				checkSamePass(t, bc.name, inline, blocks, inErr, err)
			}
		})
	}
}

// decodeGoroutines counts the goroutines running a decode-ahead loop, read
// from every goroutine's stack, so goroutines that other code starts or
// ends meanwhile do not move it.
func decodeGoroutines() int {
	buf := make([]byte, 1<<16)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return bytes.Count(buf[:n], []byte("store.(*segCore).decodeAhead("))
		}
		buf = make([]byte, 2*len(buf))
	}
}

// settleDecodeGoroutines waits for the decode-ahead goroutine count to
// reach 0 and reports the count it saw last. A stopped goroutine has
// signalled its exit before it returns, so its frame can outlive the stop
// by a moment.
func settleDecodeGoroutines() int {
	n := decodeGoroutines()
	for i := 0; i < 100 && n > 0; i++ {
		time.Sleep(5 * time.Millisecond)
		n = decodeGoroutines()
	}
	return n
}

// TestDecodeAheadResetAndCloseStopGoroutine: a Reset or Close in the middle
// of an ahead pass stops the decode goroutine before it returns, and the
// stream after a mid-pass Reset starts over from the first edge.
func TestDecodeAheadResetAndCloseStopGoroutine(t *testing.T) {
	g := multiBlockGraph()
	path := writeTemp(t, g)
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			withProcs(2, func() {
				src, err := bc.open(path)
				if err != nil {
					t.Fatal(err)
				}
				for range 3 {
					if _, err := src.NextBlock(); err != nil {
						t.Fatal(err)
					}
				}
				if n := decodeGoroutines(); coreOf(t, src).run == nil || n != 1 {
					t.Fatalf("mid-pass: %d decode goroutines, want 1", n)
				}
				if err := src.Reset(); err != nil {
					t.Fatal(err)
				}
				if n := settleDecodeGoroutines(); n != 0 {
					t.Fatalf("after a mid-pass Reset: %d decode goroutines", n)
				}
				blk, err := src.NextBlock()
				if err != nil || len(blk) == 0 || blk[0] != g.Edges[0] {
					t.Fatalf("first block after Reset: %d edges, err %v; want the stream's start", len(blk), err)
				}
				if err := src.Close(); err != nil {
					t.Fatal(err)
				}
				if n := settleDecodeGoroutines(); n != 0 {
					t.Fatalf("after a mid-pass Close: %d decode goroutines", n)
				}
			})
		})
	}
}

// TestDecodeAheadErrorAtSameBlock: a payload block whose CRC fails, and a
// block the decoder itself rejects, end an ahead pass at the same block as
// the inline pass, with the same error, after delivering every earlier
// block unchanged.
func TestDecodeAheadErrorAtSameBlock(t *testing.T) {
	g := multiBlockGraph()
	dir := t.TempDir()
	clean, err := os.ReadFile(writeTemp(t, g))
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(clean)
	flipped[len(payloadOf(t, clean))*2/3] ^= 0x20
	// A target past nv two thirds of the way in, under a valid trailer.
	bad := slices.Clone(g.Edges)
	bad[len(bad)*2/3].Dst = graph.VertexID(g.NumVertices)
	forged := seal(t, encodePayload(t, g.NumVertices, bad))
	for _, tc := range []struct {
		name string
		data []byte
	}{{"crc", flipped}, {"decode", forged}} {
		path := filepath.Join(dir, tc.name+".cgr")
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, bc := range backendCases() {
			name := tc.name + "/" + bc.name
			src, err := bc.open(path)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			inline, inErr, _ := passBlocks(t, src, 1)
			if inErr == nil || len(inline) < 2 {
				t.Fatalf("%s: inline pass ended after %d blocks with %v; want a mid-stream error", name, len(inline), inErr)
			}
			if got := slices.Concat(inline...); !slices.Equal(got, g.Edges[:len(got)]) {
				t.Fatalf("%s: inline blocks before the error are not the written edges", name)
			}
			blocks, err, on := passBlocks(t, src, 2)
			if !on {
				t.Fatalf("%s: no decode goroutine", name)
			}
			checkSamePass(t, name, inline, blocks, inErr, err)
			var ce *CorruptError
			if isCRC := errors.As(err, &ce); isCRC != (tc.name == "crc") {
				t.Fatalf("%s: pass ended in %v (a CRC failure: %v)", name, err, isCRC)
			}
			if _, again := src.NextBlock(); again == nil || again.Error() != err.Error() {
				t.Fatalf("%s: NextBlock after the error returned %v, want it again", name, again)
			}
			src.Close()
		}
	}
}

// TestDecodeAheadHeldBlockStable: the block the consumer holds is never a
// decode target. Each block is checked after the goroutine has filled the
// ring behind it; under -race a write into the held block is also a
// reported race.
func TestDecodeAheadHeldBlockStable(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 20000, OutDegree: 8, IntraSite: 0.8, Seed: 3})
	path := writeTemp(t, g)
	for _, bc := range backendCases() {
		t.Run(bc.name, func(t *testing.T) {
			withProcs(2, func() {
				src, err := bc.open(path)
				if err != nil {
					t.Fatal(err)
				}
				defer src.Close()
				core := coreOf(t, src)
				nblocks := 0
				for pos := 0; ; {
					blk, err := src.NextBlock()
					if err == io.EOF {
						break
					}
					if err != nil {
						t.Fatal(err)
					}
					held := slices.Clone(blk)
					if pos+len(blk)+aheadDepth*len(blk) < len(g.Edges) {
						full := core.run.full
						for i := 0; i < 2000 && len(full) < cap(full); i++ {
							time.Sleep(50 * time.Microsecond)
						}
						if len(full) < cap(full) {
							t.Fatalf("block %d: the ring did not fill behind the held block", nblocks)
						}
					}
					if !slices.Equal(blk, held) {
						t.Fatalf("block %d was rewritten while held", nblocks)
					}
					if !slices.Equal(blk, g.Edges[pos:pos+len(blk)]) {
						t.Fatalf("block %d is not the written edges", nblocks)
					}
					pos += len(blk)
					nblocks++
				}
				if nblocks < 2*(aheadDepth+1) {
					t.Fatalf("only %d blocks: the ring never wrapped", nblocks)
				}
			})
		})
	}
}
