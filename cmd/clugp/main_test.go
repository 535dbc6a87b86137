package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro"
)

// TestResumeResultMatchesCleanRun: a checkpointed -stream run that dies
// mid-stream (its input has a corrupt block near the end) and is then
// resumed with -resume -result, once the input is repaired, saves a .cpr
// and an -assign file byte-identical to an uninterrupted run's. Completed
// runs leave no checkpoint files behind, CLUGP's base file included.
func TestResumeResultMatchesCleanRun(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "g.cgr")
	g := repro.GenerateWeb(repro.WebConfig{N: 12000, OutDegree: 5, IntraSite: 0.7, Seed: 17})
	var enc bytes.Buffer
	if err := repro.WriteCompressedFormat(&enc, g, repro.FormatCGR3); err != nil {
		t.Fatal(err)
	}
	good := enc.Bytes()
	if err := os.WriteFile(in, good, 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(algo, name string, resume bool) error {
		p, err := repro.NewPartitioner(algo, 42)
		if err != nil {
			t.Fatal(err)
		}
		_, err = runStreaming(p, in, streamOpts{
			k:          8,
			out:        filepath.Join(dir, name+".txt"),
			resultPath: filepath.Join(dir, name+".cpr"),
			backend:    "mmap",
			workers:    1,
			ckPath:     filepath.Join(dir, name+".cpk"),
			ckEvery:    8192,
			resume:     resume,
		}, nil)
		return err
	}
	noCheckpoints := func(name string) {
		t.Helper()
		for _, suffix := range []string{"", repro.CheckpointPrevSuffix, repro.CheckpointBaseSuffix} {
			if _, err := os.Stat(filepath.Join(dir, name+".cpk"+suffix)); !os.IsNotExist(err) {
				t.Errorf("completed run left %s.cpk%s behind (stat err %v)", name, suffix, err)
			}
		}
	}

	if err := run("HDRF", "clean", false); err != nil {
		t.Fatal(err)
	}
	noCheckpoints("clean")

	bad := bytes.Clone(good)
	bad[len(bad)*4/5] ^= 0x10
	if err := os.WriteFile(in, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("HDRF", "crash", false); err == nil {
		t.Fatal("a run over a corrupt block completed")
	}
	if _, err := os.Stat(filepath.Join(dir, "crash.cpk")); err != nil {
		t.Fatalf("the crashed run left no checkpoint: %v", err)
	}
	if err := os.WriteFile(in, good, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run("HDRF", "crash", true); err != nil {
		t.Fatal(err)
	}
	for _, ext := range []string{".cpr", ".txt"} {
		want, err := os.ReadFile(filepath.Join(dir, "clean"+ext))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, "crash"+ext))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("crash + resume %s (%d bytes) differs from the clean run's (%d bytes)", ext, len(got), len(want))
		}
	}
	noCheckpoints("crash")

	if err := run("CLUGP", "clugp", false); err != nil {
		t.Fatal(err)
	}
	noCheckpoints("clugp")
}
