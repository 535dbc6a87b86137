package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestMain runs the command itself when CLUGP_RUN_MAIN is set, so a test
// can run the test binary as clugp and observe its exit status.
func TestMain(m *testing.M) {
	if os.Getenv("CLUGP_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestStreamRefusesGreedy: out of core, Greedy would put every edge on one
// partition, so clugp -stream -algo Greedy exits non-zero with the cause
// instead of reporting that run.
func TestStreamRefusesGreedy(t *testing.T) {
	in := filepath.Join(t.TempDir(), "g.cgr")
	var enc bytes.Buffer
	g := repro.GenerateWeb(repro.WebConfig{N: 2000, OutDegree: 5, Seed: 3})
	if err := repro.WriteCompressed(&enc, g); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-in", in, "-stream", "-algo", "Greedy", "-k", "16")
	cmd.Env = append(os.Environ(), "CLUGP_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exitErr *exec.ExitError
	if !errors.As(err, &exitErr) || exitErr.ExitCode() == 0 {
		t.Fatalf("clugp -stream -algo Greedy: err %v, want a non-zero exit; output:\n%s", err, out)
	}
	if !strings.Contains(string(out), "no balance term") {
		t.Fatalf("clugp -stream -algo Greedy did not name the cause:\n%s", out)
	}
}

// TestResumeResultMatchesCleanRun: a checkpointed -stream run that dies
// mid-stream and is then resumed with -resume -result saves a .cpr and an
// -assign file byte-identical to an uninterrupted run's. HDRF dies on a
// corrupt block near the end of its one pass; CLUGP dies in pass 3, the
// only pass that emits. Both resume the same way: the run is recomputed
// from the start and its prefix checked against the durable one, and the
// whole recomputed stream reaches the run's quality accounting, whose table
// -result saves. Completed runs leave no checkpoint files behind.
func TestResumeResultMatchesCleanRun(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "g.cgr")
	g := repro.GenerateWeb(repro.WebConfig{N: 12000, OutDegree: 5, IntraSite: 0.7, Seed: 17})
	var enc bytes.Buffer
	if err := repro.WriteCompressed(&enc, g); err != nil {
		t.Fatal(err)
	}
	good := enc.Bytes()
	if err := os.WriteFile(in, good, 0o644); err != nil {
		t.Fatal(err)
	}
	opts := func(name string, resume bool) runOpts {
		return runOpts{
			in:         in,
			stream:     true,
			k:          8,
			out:        filepath.Join(dir, name+".txt"),
			resultPath: filepath.Join(dir, name+".cpr"),
			ckPath:     filepath.Join(dir, name+".cpk"),
			ckEvery:    8192,
			resume:     resume,
		}
	}
	partitioner := func(algo string) repro.Partitioner {
		p, err := repro.NewPartitioner(algo, 42)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	noCheckpoints := func(name string) {
		t.Helper()
		for _, suffix := range []string{"", repro.CheckpointPrevSuffix} {
			if _, err := os.Stat(filepath.Join(dir, name+".cpk"+suffix)); !os.IsNotExist(err) {
				t.Errorf("completed run left %s.cpk%s behind (stat err %v)", name, suffix, err)
			}
		}
	}
	// resumeMatches resumes the crashed run and compares its outputs with
	// the clean run's. 1 MiB of junk is appended to the crashed -assign
	// file first, so the file runs past the clean run's end: the resumed
	// run writes over what lies past the record's watermark and must cut
	// the rest.
	resumeMatches := func(algo, clean, crash string) {
		t.Helper()
		if _, err := os.Stat(filepath.Join(dir, crash+".cpk")); err != nil {
			t.Fatalf("the crashed %s run left no checkpoint: %v", algo, err)
		}
		f, err := os.OpenFile(filepath.Join(dir, crash+".txt"), os.O_WRONLY|os.O_APPEND, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write(bytes.Repeat([]byte("junk\n"), 1<<18)); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := run(partitioner(algo), opts(crash, true)); err != nil {
			t.Fatal(err)
		}
		for _, ext := range []string{".cpr", ".txt"} {
			want, err := os.ReadFile(filepath.Join(dir, clean+ext))
			if err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(filepath.Join(dir, crash+ext))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s crash + resume %s (%d bytes) differs from the clean run's (%d bytes)", algo, ext, len(got), len(want))
			}
		}
		noCheckpoints(crash)
	}

	for _, c := range []struct{ algo, name string }{{"HDRF", "hdrf"}, {"CLUGP", "clugp"}} {
		if _, err := run(partitioner(c.algo), opts(c.name, false)); err != nil {
			t.Fatal(err)
		}
		noCheckpoints(c.name)
	}

	bad := bytes.Clone(good)
	bad[len(bad)*4/5] ^= 0x10
	if err := os.WriteFile(in, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := run(partitioner("HDRF"), opts("hdrf-crash", false)); err == nil {
		t.Fatal("a run over a corrupt block completed")
	}
	if err := os.WriteFile(in, good, 0o644); err != nil {
		t.Fatal(err)
	}
	resumeMatches("HDRF", "hdrf", "hdrf-crash")

	crashMidEmit(t, partitioner("CLUGP"), opts("clugp-crash", false), 40000)
	resumeMatches("CLUGP", "clugp", "clugp-crash")
}

// TestRefusedResumeKeepsAssign: a -resume that does not match the
// interrupted run - a k=8 HDRF crash resumed with -k 9 or -algo CLUGP, or
// pointed at another -assign path - fails and leaves the crash's -assign
// file byte-identical, and creates no file at a mistaken path.
func TestRefusedResumeKeepsAssign(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "g.cgr")
	var enc bytes.Buffer
	if err := repro.WriteCompressed(&enc, repro.GenerateWeb(repro.WebConfig{N: 12000, OutDegree: 5, IntraSite: 0.7, Seed: 17})); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	o := runOpts{in: in, stream: true, k: 8, out: filepath.Join(dir, "a.txt"),
		ckPath: filepath.Join(dir, "run.cpk"), ckEvery: 16384}
	hdrf, err := repro.NewPartitioner("HDRF", 42)
	if err != nil {
		t.Fatal(err)
	}
	crashMidEmit(t, hdrf, o, 40000)
	crashed, err := os.ReadFile(o.out)
	if err != nil {
		t.Fatal(err)
	}
	c, _, err := repro.LoadCheckpoint(o.ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(crashed)) <= c.EmitMark {
		t.Fatalf("the crash left %d -assign bytes, none past the record's watermark %d", len(crashed), c.EmitMark)
	}

	missing := filepath.Join(dir, "elsewhere.txt")
	for _, tc := range []struct {
		name, algo string
		mutate     func(*runOpts)
		want       string
	}{
		{"-k 9", "HDRF", func(o *runOpts) { o.k = 9 }, "k=8"},
		{"-algo CLUGP", "CLUGP", func(*runOpts) {}, "algorithm"},
		{"-assign elsewhere", "HDRF", func(o *runOpts) { o.out = missing }, "no such file"},
	} {
		ro := o
		ro.resume = true
		tc.mutate(&ro)
		p, err := repro.NewPartitioner(tc.algo, 42)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run(p, ro); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("resume with %s: err %v, want one containing %q", tc.name, err, tc.want)
		}
		got, err := os.ReadFile(o.out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, crashed) {
			t.Fatalf("the refused resume with %s changed -assign (%d bytes, was %d)", tc.name, len(got), len(crashed))
		}
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("a refused resume created %s (stat err %v)", missing, err)
	}
}

var errCrash = errors.New("injected crash")

// crashMidEmit runs p the way runStreaming's checkpointed path does - "src
// dst p" lines through a counting writer, EmitMark flushing and syncing
// them - but fails the emit once n edges are out, leaving the -assign
// file, lines past the last record's watermark included, and the
// checkpoint records of a run that died mid-stream. A corrupt
// input block cannot do that to CLUGP: its first pass would read the block
// long before pass 3 emits anything.
func crashMidEmit(t *testing.T, p repro.Partitioner, o runOpts, n int) {
	t.Helper()
	src, err := repro.OpenCompressed(o.in)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	f, err := os.Create(o.out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cw := &countingWriter{w: f}
	w := bufio.NewWriter(cw)
	ck := &repro.CheckpointOptions{Path: o.ckPath, EveryEdges: o.ckEvery, EmitMark: func() (int64, error) {
		if err := w.Flush(); err != nil {
			return 0, err
		}
		return cw.n, f.Sync()
	}}
	var buf []byte
	emitted := 0
	emit := func(edges []repro.Edge, assign []int32) error {
		if emitted >= n {
			// Die with the lines past the last record on disk, as a kill
			// after a buffer flush leaves them.
			if err := w.Flush(); err != nil {
				return err
			}
			return errCrash
		}
		for i, e := range edges {
			buf = appendAssignLine(buf[:0], e, assign[i])
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		emitted += len(edges)
		return nil
	}
	if _, err := repro.RunOutOfCoreOpts(p, src, o.k, emit, repro.OutOfCoreOptions{Checkpoint: ck}); !errors.Is(err, errCrash) {
		t.Fatalf("crash run: got err %v, want the injected crash", err)
	}
}

// TestTracePrintsPassTimes: -trace prints CLUGP's four pass times under
// pipebench's layer names, its state at the end of each phase (the
// largest is the run's state memory), the evaluator's replica table on a
// line of its own, and the phase boundary's collection with the heap in
// use around it; a one-pass algorithm prints no boundary.
func TestTracePrintsPassTimes(t *testing.T) {
	dir := t.TempDir()
	in := filepath.Join(dir, "g.cgr")
	var enc bytes.Buffer
	if err := repro.WriteCompressed(&enc, repro.GenerateWeb(repro.WebConfig{N: 3000, OutDegree: 5, Seed: 3})); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(in, enc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	c := &repro.CLUGP{Seed: 1}
	res, err := run(c, runOpts{in: in, stream: true, k: 8})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	printCLUGPTrace(&out, c)
	printReplicas(&out, res)
	printBoundary(&out, res)
	b := res.Pipeline.Boundary
	if b.Collections != 1 || b.HeapBefore == 0 || b.HeapAfter == 0 {
		t.Errorf("CLUGP run reports boundary %+v, want one collection with the heap around it", b)
	}
	if want := fmt.Sprintf("phase boundary:     heap in use %.2f -> %.2f MB across the collection after passes 1 and 2 (1 collection(s))\n",
		float64(b.HeapBefore)/(1<<20), float64(b.HeapAfter)/(1<<20)); !strings.Contains(out.String(), want) {
		t.Errorf("trace output lacks %q:\n%s", want, out.String())
	}
	h, err := repro.NewPartitioner("HDRF", 1)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := run(h, runOpts{in: in, stream: true, k: 8})
	if err != nil {
		t.Fatal(err)
	}
	var hout bytes.Buffer
	if printBoundary(&hout, hres); hout.Len() != 0 {
		t.Errorf("HDRF run prints a phase boundary: %q", hout.String())
	}
	tr := c.LastTrace
	for name, d := range map[string]time.Duration{
		"cluster.run_s":         tr.ClusterTime,
		"cluster.build_s":       tr.BuildTime,
		"game.solve_s":          tr.GameTime,
		"partition.transform_s": tr.TransformTime,
	} {
		if want := fmt.Sprintf(" %s %.3f", name, d.Seconds()); !strings.Contains(out.String(), want) {
			t.Errorf("trace output lacks %q:\n%s", want, out.String())
		}
	}
	phases := []int64{tr.ClusterBytes, tr.BuildBytes, tr.GameBytes, tr.TransformBytes}
	if slices.Contains(phases, 0) || slices.Max(phases) != res.StateBytes {
		t.Errorf("phase state %v bytes, want four non-zero phases peaking at the run's state memory %d", phases, res.StateBytes)
	}
	for _, want := range []string{
		fmt.Sprintf("phase state (MB):   cluster %.2f  build %.2f  game %.2f  transform %.2f\n",
			mb(tr.ClusterBytes), mb(tr.BuildBytes), mb(tr.GameBytes), mb(tr.TransformBytes)),
		fmt.Sprintf("replica table:      %.2f MB (quality accounting, not in state memory)\n", mb(res.Replicas.Bytes())),
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("trace output lacks %q:\n%s", want, out.String())
		}
	}
}

// TestCLUGPFlagsApplyToFamily: -tau, -weight, -batch and -threads reach
// CLUGP and CLUGP-S without undoing their ablation settings, and -tau
// reaches CLUGP-G.
func TestCLUGPFlagsApplyToFamily(t *testing.T) {
	all := map[string]bool{"tau": true, "weight": true, "batch": true, "threads": true}
	for _, algo := range []string{"CLUGP", "CLUGP-S", "CLUGP-G"} {
		set := all
		if algo == "CLUGP-G" {
			set = map[string]bool{"tau": true}
		}
		p, err := buildPartitioner(algo, 9, set, 1.1, 0.3, 64, 2)
		if err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
		c := p.(*repro.CLUGP)
		if c.Name() != algo || c.Seed != 9 || c.Tau != 1.1 {
			t.Fatalf("%s: built %s seed %d tau %v", algo, c.Name(), c.Seed, c.Tau)
		}
		if algo != "CLUGP-G" && (c.RelWeight != 0.3 || c.BatchSize != 64 || c.Threads != 2) {
			t.Fatalf("%s: weight %v batch %d threads %d, want 0.3/64/2", algo, c.RelWeight, c.BatchSize, c.Threads)
		}
	}
}

// TestCLUGPFlagsRejectedElsewhere: a CLUGP knob given to an algorithm that
// would ignore it is an error naming the flag - every knob outside the
// CLUGP family, the game's knobs on CLUGP-G.
func TestCLUGPFlagsRejectedElsewhere(t *testing.T) {
	for _, algo := range []string{"Hashing", "DBH", "Greedy", "HDRF", "Mint", "CLUGP-G"} {
		for _, name := range []string{"tau", "weight", "batch", "threads"} {
			if algo == "CLUGP-G" && name == "tau" {
				continue
			}
			_, err := buildPartitioner(algo, 1, map[string]bool{name: true}, 0, 0, 0, 0)
			if err == nil || !strings.Contains(err.Error(), "-"+name+" ") {
				t.Fatalf("%s -%s: err %v, want one naming -%s", algo, name, err, name)
			}
		}
		if _, err := buildPartitioner(algo, 1, nil, 0, 0, 0, 0); err != nil {
			t.Fatalf("%s without CLUGP flags: %v", algo, err)
		}
	}
}

// TestRetryNeedsStream: -retry wraps only the out-of-core source, so
// without -stream it is rejected instead of ignored, as is a negative
// attempt count.
func TestRetryNeedsStream(t *testing.T) {
	set := map[string]bool{"retry": true}
	err := checkRunFlags(set, runOpts{retry: 3})
	if err == nil || !strings.Contains(err.Error(), "-retry") {
		t.Fatalf("-retry without -stream: err %v", err)
	}
	err = checkRunFlags(set, runOpts{retry: -1, stream: true})
	if err == nil || !strings.Contains(err.Error(), "-retry -1") {
		t.Fatalf("-retry -1: err %v, want a rejection", err)
	}
	if err := checkRunFlags(set, runOpts{retry: 3, stream: true}); err != nil {
		t.Fatalf("-retry with -stream: %v", err)
	}
}

// TestCheckpointEveryNeedsCheckpoint: -checkpoint-every sets the cadence
// of -checkpoint's records, so without -checkpoint it is rejected instead
// of ignored, as is a negative cadence.
func TestCheckpointEveryNeedsCheckpoint(t *testing.T) {
	set := map[string]bool{"checkpoint-every": true, "stream": true}
	err := checkRunFlags(set, runOpts{stream: true, ckEvery: 100})
	if err == nil || !strings.Contains(err.Error(), "-checkpoint-every") {
		t.Fatalf("-checkpoint-every without -checkpoint: err %v", err)
	}
	o := runOpts{stream: true, ckEvery: 100, ckPath: "run.cpk", out: "a.txt"}
	if err := checkRunFlags(set, o); err != nil {
		t.Fatalf("-checkpoint-every with -checkpoint: %v", err)
	}
	o.ckEvery = -1
	if err := checkRunFlags(set, o); err == nil || !strings.Contains(err.Error(), "-checkpoint-every -1") {
		t.Fatalf("-checkpoint-every -1: err %v, want a rejection", err)
	}
}
