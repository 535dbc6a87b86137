package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testCheckpoint builds a representative record: a mid-stream offset and a
// non-zero emit watermark.
func testCheckpoint() *Checkpoint {
	return &Checkpoint{
		Algorithm:   "HDRF",
		K:           8,
		NumVertices: 1000,
		NumEdges:    50000,
		Offset:      16384,
		EmitMark:    98304,
	}
}

// cpk1Record is a CLUGP record at k=32 in the retired CPK1 layout (a batch
// index after the offset, a section count at the end) under a valid
// integrity trailer, so only its magic and layout are wrong.
func cpk1Record(t testing.TB) []byte {
	t.Helper()
	p := []byte("CPK1")
	for _, x := range []uint64{1000, 50000, 32} {
		p = binary.AppendUvarint(p, x)
	}
	p = append(binary.AppendUvarint(p, 5), "CLUGP"...)
	for _, x := range []uint64{24576, 3, 221184, 0} {
		p = binary.AppendUvarint(p, x)
	}
	return seal(t, p)
}

// TestCheckpointRefusesCPK1: a record in the retired CPK1 format is
// refused by its magic, never read as a CPK2 record.
func TestCheckpointRefusesCPK1(t *testing.T) {
	if _, err := ReadCheckpoint(bytes.NewReader(cpk1Record(t))); !errors.Is(err, ErrBadCheckpointMagic) {
		t.Fatalf("CPK1 record: got err %v, want ErrBadCheckpointMagic", err)
	}
}

// TestCheckpointRoundTrip: encode -> decode reproduces every field, and re-encoding the decoded checkpoint is a bit-identical fixed
// point (the canonical-encoding contract FuzzReadCheckpoint generalizes).
func TestCheckpointRoundTrip(t *testing.T) {
	c := testCheckpoint()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, c) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, c)
	}
	var again bytes.Buffer
	if err := WriteCheckpoint(&again, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), buf.Bytes()) {
		t.Fatal("re-encoding a decoded checkpoint changed the bytes")
	}
}

// TestCheckpointDetectsCorruption: a checkpoint file exists to be read
// after a crash, exactly when torn and corrupt writes are likeliest - so a
// flipped bit anywhere, or a truncated tail, must reject at read time.
func TestCheckpointDetectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, testCheckpoint()); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()
	for off := 0; off < len(valid); off += 7 {
		forged := bytes.Clone(valid)
		forged[off] ^= 0x10
		if _, err := ReadCheckpoint(bytes.NewReader(forged)); err == nil {
			t.Fatalf("flip at byte %d decoded without error", off)
		}
	}
	for _, cut := range []int{0, 3, 4, len(valid) / 2, len(valid) - 1} {
		if _, err := ReadCheckpoint(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation to %d bytes decoded without error", cut)
		}
	}
}

// checkpointPayload encodes c's payload as WriteCheckpoint does, except
// that the varint named spell (if any) is spelled one byte long (spellLong).
// Names are "vertex count", "edge count", "partition count", "algorithm
// length", "offset" and "emit mark".
func checkpointPayload(c *Checkpoint, spell string) []byte {
	b := append([]byte{}, checkpointMagic[:]...)
	put := func(field string, x uint64) {
		if field == spell {
			b = spellLong(b, x)
		} else {
			b = binary.AppendUvarint(b, x)
		}
	}
	put("vertex count", uint64(c.NumVertices))
	put("edge count", uint64(c.NumEdges))
	put("partition count", uint64(c.K))
	put("algorithm length", uint64(len(c.Algorithm)))
	b = append(b, c.Algorithm...)
	put("offset", uint64(c.Offset))
	put("emit mark", uint64(c.EmitMark))
	return b
}

// TestCheckpointRejectsOverlongVarint: every varint field of a CPK2 record
// has exactly one accepted spelling, so a decoded record always re-encodes
// to its own bytes. Each case spells one field one byte long under a valid
// trailer; the decoder must reject it.
func TestCheckpointRejectsOverlongVarint(t *testing.T) {
	c := testCheckpoint()
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, c); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seal(t, checkpointPayload(c, "")), buf.Bytes()) {
		t.Fatal("checkpointPayload does not match WriteCheckpoint's bytes")
	}
	for _, field := range []string{"vertex count", "edge count", "partition count", "algorithm length", "offset", "emit mark"} {
		_, err := ReadCheckpoint(bytes.NewReader(seal(t, checkpointPayload(c, field))))
		if !errors.Is(err, errVarintOverlong) {
			t.Errorf("%s: got %v, want an overlong-varint error", field, err)
		}
	}
}

// TestCheckpointValidates: inconsistent snapshots are rejected before they
// reach disk - the write side enforces what the read side would refuse.
func TestCheckpointValidates(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Checkpoint)
	}{
		{"k zero", func(c *Checkpoint) { c.K = 0 }},
		{"offset past edges", func(c *Checkpoint) { c.Offset = c.NumEdges + 1 }},
		{"negative emit mark", func(c *Checkpoint) { c.EmitMark = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := testCheckpoint()
			tc.mutate(c)
			if err := WriteCheckpoint(&bytes.Buffer{}, c); err == nil {
				t.Fatal("invalid checkpoint encoded without error")
			}
		})
	}
}

// TestCheckpointFileRotation: WriteCheckpointFile keeps a two-generation
// pair - the new file commits atomically, the old one rotates to .prev -
// and LoadCheckpoint always returns the newest generation that proves out:
// the current file, the .prev fallback when the current is corrupt or
// missing, or an error when neither survives.
func TestCheckpointFileRotation(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.cpk")
	prev := path + CheckpointPrevSuffix

	c1 := testCheckpoint()
	c1.Offset = 8192
	if _, err := WriteCheckpointFile(path, c1); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(prev); !os.IsNotExist(err) {
		t.Fatalf("first write created a .prev (stat err %v)", err)
	}

	c2 := testCheckpoint()
	c2.Offset = 16384
	n, err := WriteCheckpointFile(path, c2)
	if err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != n {
		t.Fatalf("reported %d bytes, file is %v (err %v)", n, fi, err)
	}
	got, from, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if from != path || got.Offset != 16384 {
		t.Fatalf("loaded offset %d from %s, want 16384 from %s", got.Offset, from, path)
	}
	if pg, err := ReadCheckpointFile(prev); err != nil || pg.Offset != 8192 {
		t.Fatalf("rotated generation: offset %d, err %v", pg.Offset, err)
	}

	// Corrupt the current file: the pair still resumes, one generation back.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, from, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if from != prev || got.Offset != 8192 {
		t.Fatalf("fallback loaded offset %d from %s, want 8192 from %s", got.Offset, from, prev)
	}

	// The crash window between rotate and commit leaves only .prev.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if _, from, err = LoadCheckpoint(path); err != nil || from != prev {
		t.Fatalf("missing current: loaded from %s, err %v", from, err)
	}

	// Both generations gone bad: an error, never a fabricated resume.
	if err := os.Remove(prev); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadCheckpoint(path); err == nil {
		t.Fatal("LoadCheckpoint invented a checkpoint from nothing")
	} else if !strings.Contains(err.Error(), "no usable checkpoint") {
		t.Fatalf("error %q does not explain the missing pair", err)
	}
}

// FuzzReadCheckpoint drives the CPK2 record decoder: it must never panic,
// must reject forged headers, truncated bodies, checksum forgeries and
// CPK1 files, and anything it accepts must re-encode to a canonical file
// whose decode is a fixed point.
func FuzzReadCheckpoint(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteCheckpoint(&buf, testCheckpoint()); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-1])
	// Checksum forgeries: header flip, payload flip, trailer flip.
	for _, off := range []int{5, len(valid) / 2, len(valid) - 2} {
		forged := bytes.Clone(valid)
		forged[off] ^= 1
		f.Add(forged)
	}
	// A minimal record: offset and watermark zero.
	min := &Checkpoint{Algorithm: "X", K: 1, NumVertices: 1, NumEdges: 1}
	buf.Reset()
	if err := WriteCheckpoint(&buf, min); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	f.Add([]byte("CPK2"))
	f.Add(append([]byte("CPK2"), 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Add([]byte("CGR3 pretending"))
	f.Add([]byte{})
	// A record as a CLUGP run at k=32 writes one.
	buf.Reset()
	if err := WriteCheckpoint(&buf, &Checkpoint{Algorithm: "CLUGP", K: 32, NumVertices: 1000, NumEdges: 50000,
		Offset: 24576, EmitMark: 221184}); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	// The same record in the retired CPK1 layout.
	f.Add(cpk1Record(f))
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := WriteCheckpoint(&enc, c); err != nil {
			t.Fatalf("accepted checkpoint does not re-encode: %v", err)
		}
		again, err := ReadCheckpoint(bytes.NewReader(enc.Bytes()))
		if err != nil {
			t.Fatalf("canonical re-encoding does not decode: %v", err)
		}
		if !reflect.DeepEqual(again, c) {
			t.Fatalf("canonical round trip changed the checkpoint:\n got %+v\nwant %+v", again, c)
		}
	})
}

// FuzzReadCheckpointBody drives the CPK2 record decoder directly, as
// FuzzReadResultBody does the result decoder. The fuzzed bytes are the
// record after the magic; the target puts "CPK2" in front and seals them
// under a valid trailer, so mutation is never stopped by a checksum. Any
// accepted input must be canonical: WriteCheckpoint of the decoded record
// reproduces the sealed file byte for byte. Seeds: valid records, a
// truncated one, forged headers and a record whose vertex count is spelled
// overlong (0x81 0x00).
func FuzzReadCheckpointBody(f *testing.F) {
	body := func(c *Checkpoint) []byte { return checkpointPayload(c, "")[len(checkpointMagic):] }
	valid := body(testCheckpoint())
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	min := body(&Checkpoint{Algorithm: "X", K: 1, NumVertices: 1, NumEdges: 1})
	f.Add(min)
	f.Add(append([]byte{0x81, 0x00}, min[1:]...))
	for _, h := range [][3]uint64{{1 << 33, 1, 4}, {4, 1 << 57, 4}, {4, 1, 0}, {4, 1, maxK + 1}} {
		f.Add(uvarints(h[0], h[1], h[2]))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		sealed := seal(t, append(append([]byte{}, checkpointMagic[:]...), data...))
		got, err := ReadCheckpoint(bytes.NewReader(sealed))
		var ce *CorruptError
		if errors.As(err, &ce) || errors.Is(err, ErrBadCheckpointMagic) {
			t.Fatalf("sealed payload rejected before the decoder: %v", err)
		}
		if err != nil {
			return
		}
		var enc bytes.Buffer
		if err := WriteCheckpoint(&enc, got); err != nil {
			t.Fatalf("decoded checkpoint does not re-encode: %v", err)
		}
		if !bytes.Equal(enc.Bytes(), sealed) {
			t.Fatalf("accepted a non-canonical file: re-encoding gives %d bytes, input was %d", enc.Len(), len(sealed))
		}
	})
}
