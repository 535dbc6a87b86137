package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// testCheckpoint builds a representative snapshot: several sections of
// mixed sizes, one empty, non-zero marks.
func testCheckpoint() *Checkpoint {
	c := &Checkpoint{
		Algorithm:   "HDRF",
		K:           8,
		NumVertices: 1000,
		NumEdges:    50000,
		Offset:      16384,
		Batch:       2,
		EmitMark:    98304,
	}
	c.AddSection("hdrf.replicas", bytes.Repeat([]byte{0x01, 0x80, 0x02}, 40))
	c.AddSection("hdrf.sizes", []byte{10, 20, 30, 40, 50, 60, 70, 80})
	c.AddSection("eval.state", nil)
	return c
}

// recordCheckpoint builds a checkpoint record as an out-of-core run writes
// one: the header and the CRC32C of the run's base file.
func recordCheckpoint() *Checkpoint {
	c := &Checkpoint{Algorithm: "CLUGP", K: 32, NumVertices: 1000, NumEdges: 50000,
		Offset: 24576, Batch: 3, EmitMark: 221184}
	c.AddSection("base", []byte{0x8c, 0xe4, 0x76, 0x4a})
	return c
}

// clugpBaseCheckpoint builds a CLUGP base file: one record per vertex
// (master and mirror partition as uvarint(p+1), then the degree) and the
// pass-1/2 scalars.
func clugpBaseCheckpoint() *Checkpoint {
	const nv = 12
	var vert, scalars []byte
	for v := 0; v < nv; v++ {
		vert = binary.AppendUvarint(vert, uint64(v%2+1))
		vert = binary.AppendUvarint(vert, uint64(v%3)) // 0 = no mirror
		vert = binary.AppendUvarint(vert, uint64(v*37%300))
	}
	for _, x := range []uint64{4, 2, 1, 5, 9, 1, 0x3fe0000000000000, 0x3fd0000000000000, 1e6, 2e6, 3e6} {
		scalars = binary.AppendUvarint(scalars, x)
	}
	c := &Checkpoint{Algorithm: "CLUGP", K: 2, NumVertices: nv, NumEdges: 40}
	c.AddSection("clugp.vertex", vert)
	c.AddSection("clugp.scalars", scalars)
	return c
}

// TestCheckpointRoundTrip: encode -> decode reproduces every field and
// section, and re-encoding the decoded checkpoint is a bit-identical fixed
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
		{"empty section name", func(c *Checkpoint) { c.AddSection("", nil) }},
		{"too many sections", func(c *Checkpoint) {
			for i := 0; i <= maxCheckpointSections; i++ {
				c.AddSection("s", nil)
			}
		}},
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

// FuzzReadCheckpoint drives the CPK1 decoder: it must never panic, must
// reject forged headers, truncated bodies, oversized section tables and
// checksum forgeries, and anything it accepts must re-encode to a canonical
// file whose decode is a fixed point.
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
	// A minimal checkpoint with no sections.
	min := &Checkpoint{Algorithm: "X", K: 1, NumVertices: 1, NumEdges: 1}
	buf.Reset()
	if err := WriteCheckpoint(&buf, min); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Clone(buf.Bytes()))
	f.Add([]byte("CPK1"))
	f.Add(append([]byte("CPK1"), 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f))
	f.Add([]byte("CGR3 pretending"))
	f.Add([]byte{})
	// The two shapes runs write: a record and a CLUGP base file.
	for _, c := range []*Checkpoint{recordCheckpoint(), clugpBaseCheckpoint()} {
		buf.Reset()
		if err := WriteCheckpoint(&buf, c); err != nil {
			f.Fatal(err)
		}
		f.Add(bytes.Clone(buf.Bytes()))
	}
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
