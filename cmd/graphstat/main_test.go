package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro"
)

// writeFixture encodes a small deterministic graph as CGR3.
func writeFixture(t *testing.T) string {
	t.Helper()
	g := repro.GenerateWeb(repro.WebConfig{N: 5000, OutDegree: 6, Seed: 9})
	path := filepath.Join(t.TempDir(), "g.cgr")
	w, err := repro.NewAtomicWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Abort()
	if err := repro.WriteCompressed(w, g); err != nil {
		t.Fatal(err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestVerifyClean: -verify on a pristine CGR3 file proves its blocks and
// says so; a file under a retired format's magic is an error naming the
// format that is read.
func TestVerifyClean(t *testing.T) {
	path := writeFixture(t)
	var out strings.Builder
	if err := runVerify(path, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "CGR3 ok") {
		t.Fatalf("clean CGR3 verify printed %q", out.String())
	}

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	copy(data, "CGR2")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = runVerify(path, &out)
	if err == nil || !strings.Contains(err.Error(), "CGR3") {
		t.Fatalf("CGR2 verify: got %v (printed %q), want a bad-magic error naming CGR3", err, out.String())
	}
}

// TestVerifyBitFlipped: a deliberately bit-flipped fixture fails the scan
// with an error naming the first corrupt block.
func TestVerifyBitFlipped(t *testing.T) {
	path := writeFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	err = runVerify(path, &out)
	if err == nil {
		t.Fatalf("bit-flipped file verified clean: %q", out.String())
	}
	if !strings.Contains(err.Error(), "block ") {
		t.Fatalf("corruption report does not name the corrupt block: %v", err)
	}
}

// TestVerifyTruncated: a torn tail is an error, not a clean report.
func TestVerifyTruncated(t *testing.T) {
	path := writeFixture(t)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)*2/3], 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runVerify(path, new(strings.Builder)); err == nil {
		t.Fatal("truncated file verified clean")
	}
}
