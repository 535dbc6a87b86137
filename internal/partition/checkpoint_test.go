package partition

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultfs"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/store"
	"repro/internal/stream"
)

// errCrash is the seeded "kill": an emit callback returning it aborts the
// run exactly the way a process death between two batches would, except the
// test keeps the assignments emitted so far for comparison.
var errCrash = errors.New("partition_test: injected crash")

// checkpointTestGraph is sized so a crash threshold of 5 blocks leaves two
// checkpoints on disk (current + rotated .prev) and a resumed tail long
// enough to write at least one more. Its edges come in random order, the
// one-pass heuristics' own: in the web generator's natural order almost
// every destination endpoint already holds the partition its edge lands
// on, so a resume that dropped destination replicas would go unnoticed.
func checkpointTestGraph() *graph.Graph {
	g := gen.Web(gen.WebConfig{N: 12000, OutDegree: 5, IntraSite: 0.7, Seed: 17})
	g.Edges = stream.Edges(g, stream.Random, 5)
	return g
}

const (
	ckCadence = 2 * stream.BlockLen // checkpoints at 2B, 4B, ...
	ckCrashAt = 5 * stream.BlockLen // die mid-epoch: last checkpoint at 4B
)

// runUntilCrash partitions g with checkpointing enabled and kills the run
// (via errCrash from emit) once threshold assignments have been emitted,
// returning everything emitted up to the kill. Deterministic: batches are
// rebatched to BlockLen offsets whenever checkpointing is on, so the kill
// always lands at the same batch boundary.
func runUntilCrash(t *testing.T, p Partitioner, g *graph.Graph, k int, opts OutOfCoreOptions, threshold int) []int32 {
	t.Helper()
	var got []int32
	_, err := RunOutOfCoreOpts(p, stream.Of(g.Edges).Source(g.NumVertices), k, func(edges []graph.Edge, a []int32) error {
		got = append(got, a...)
		if len(got) >= threshold {
			return errCrash
		}
		return nil
	}, opts)
	if !errors.Is(err, errCrash) {
		t.Fatalf("crash run: got err %v, want the injected crash", err)
	}
	return got
}

// resumeFrom resumes from c, replaying the durable prefix crashed[:Offset]
// the killed run emitted, and runs the tail, returning the resumed
// assignments and the result.
func resumeFrom(t *testing.T, name string, g *graph.Graph, k int, c *store.Checkpoint, crashed []int32, ckPath string, opts OutOfCoreOptions) ([]int32, *Result) {
	t.Helper()
	p, err := New(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	opts.Checkpoint = &CheckpointOptions{Path: ckPath, EveryEdges: ckCadence,
		Resume: &Resume{Record: c, Prefix: PrefixOf(crashed[:c.Offset])}}
	var got []int32
	res, err := RunOutOfCoreOpts(p, stream.Of(g.Edges).Source(g.NumVertices), k, func(edges []graph.Edge, a []int32) error {
		got = append(got, a...)
		return nil
	}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return got, res
}

// checkResumedRun asserts the crash+resume pair reproduced the clean run
// bit for bit: the kept prefix [0, Offset) plus the resumed tail must match
// the reference per edge, and the resumed result's quality must be
// identical, not merely close.
func checkResumedRun(t *testing.T, ref []int32, refRes *Result, crashed, resumed []int32, res *Result, offset int64) {
	t.Helper()
	combined := append(append([]int32(nil), crashed[:offset]...), resumed...)
	if len(combined) != len(ref) {
		t.Fatalf("prefix+resume covers %d edges, want %d", len(combined), len(ref))
	}
	for i := range combined {
		if combined[i] != ref[i] {
			t.Fatalf("assignment %d = %d, want %d (resume diverged)", i, combined[i], ref[i])
		}
	}
	if !reflect.DeepEqual(res.Quality, refRes.Quality) {
		t.Fatalf("resumed quality %+v, want %+v", res.Quality, refRes.Quality)
	}
	if !res.Pipeline.Checkpoints.Resumed || res.Pipeline.Checkpoints.ResumeOffset != offset {
		t.Fatalf("pipeline checkpoint stats %+v do not record the resume at %d", res.Pipeline.Checkpoints, offset)
	}
}

// TestCheckpointResumeBitIdentical is the crash-injection matrix of the
// checkpoint subsystem: kill each checkpointing algorithm at a deterministic
// batch boundary, resume a fresh partitioner from the checkpoint on disk,
// and require the stitched run to be bit-identical - per-edge assignments
// and quality - to an uninterrupted one, for serial and parallel decode.
// Checkpoints are written at one configuration and restored at the same
// one here; cross-configuration restore has its own test below.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	g := checkpointTestGraph()
	k := 4
	if len(g.Edges) < ckCrashAt+ckCadence {
		t.Fatalf("test graph has %d edges, need at least %d", len(g.Edges), ckCrashAt+ckCadence)
	}
	for _, name := range []string{"HDRF", "Greedy", "CLUGP"} {
		p, err := New(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref, refRes := collectAssignments(t, p, stream.Of(g.Edges).Source(g.NumVertices), k, OutOfCoreOptions{})

		for _, dw := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/decode=%d", name, dw), func(t *testing.T) {
				ckPath := filepath.Join(t.TempDir(), "run.cpk")
				opts := OutOfCoreOptions{Workers: dw,
					Checkpoint: &CheckpointOptions{Path: ckPath, EveryEdges: ckCadence}}
				crashP, err := New(name, 3)
				if err != nil {
					t.Fatal(err)
				}
				crashed := runUntilCrash(t, crashP, g, k, opts, ckCrashAt)

				c, from, err := store.LoadCheckpoint(ckPath)
				if err != nil {
					t.Fatal(err)
				}
				if from != ckPath {
					t.Fatalf("loaded %s, want the current checkpoint %s", from, ckPath)
				}
				if want := int64(4 * stream.BlockLen); c.Offset != want {
					t.Fatalf("checkpoint at offset %d, want %d", c.Offset, want)
				}
				resumed, res := resumeFrom(t, name, g, k, c, crashed, ckPath, OutOfCoreOptions{Workers: dw})
				checkResumedRun(t, ref, refRes, crashed, resumed, res, c.Offset)
			})
		}
	}
}

// TestCheckpointResumeAcrossConfigurations: a checkpoint record holds no
// state laid out for a worker configuration - the resume rebuilds it from
// the durable prefix - so a record written under one configuration
// resumes bit-identically under another: a crashed 8-core run can resume
// on a 1-core box and vice versa. Subtests are named by the decode workers
// of the crashed and the resumed run.
func TestCheckpointResumeAcrossConfigurations(t *testing.T) {
	g := checkpointTestGraph()
	k := 4
	for _, name := range []string{"HDRF", "Greedy", "CLUGP"} {
		p, err := New(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		ref, refRes := collectAssignments(t, p, stream.Of(g.Edges).Source(g.NumVertices), k, OutOfCoreOptions{})
		for _, dir := range []struct {
			crash, resume OutOfCoreOptions
		}{
			{OutOfCoreOptions{Workers: 4}, OutOfCoreOptions{}},
			{OutOfCoreOptions{}, OutOfCoreOptions{Workers: 4}},
		} {
			t.Run(fmt.Sprintf("%s/crash=%d,resume=%d", name, dir.crash.Workers, dir.resume.Workers), func(t *testing.T) {
				ckPath := filepath.Join(t.TempDir(), "run.cpk")
				crashOpts := dir.crash
				crashOpts.Checkpoint = &CheckpointOptions{Path: ckPath, EveryEdges: ckCadence}
				crashP, err := New(name, 3)
				if err != nil {
					t.Fatal(err)
				}
				crashed := runUntilCrash(t, crashP, g, k, crashOpts, ckCrashAt)
				c, _, err := store.LoadCheckpoint(ckPath)
				if err != nil {
					t.Fatal(err)
				}
				resumed, res := resumeFrom(t, name, g, k, c, crashed, ckPath, dir.resume)
				checkResumedRun(t, ref, refRes, crashed, resumed, res, c.Offset)
			})
		}
	}
}

// TestCheckpointCorruptionFallsBackToPrev: a corrupted current checkpoint
// must never be resumed from - the CRC trailer rejects it and LoadCheckpoint
// falls back to the rotated previous generation, which still resumes
// bit-identically (just from an earlier offset). With both generations
// corrupt there is nothing to resume from, and that is an error, not a
// silent restart.
func TestCheckpointCorruptionFallsBackToPrev(t *testing.T) {
	g := checkpointTestGraph()
	k := 4
	name := "HDRF"
	p, err := New(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	ref, refRes := collectAssignments(t, p, stream.Of(g.Edges).Source(g.NumVertices), k, OutOfCoreOptions{})

	ckPath := filepath.Join(t.TempDir(), "run.cpk")
	crashP, err := New(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	crashed := runUntilCrash(t, crashP, g, k, OutOfCoreOptions{
		Checkpoint: &CheckpointOptions{Path: ckPath, EveryEdges: ckCadence},
	}, ckCrashAt)

	// Reading the current checkpoint through a faultfs injector: a flipped
	// bit or a torn tail beneath the reader is detected by the checksum, and
	// the decoder never hands back a checkpoint.
	fi, err := os.Stat(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, fault := range []faultfs.Fault{
		{Kind: faultfs.BitFlip, Off: fi.Size() / 3, Bit: 2},
		{Kind: faultfs.Truncate, Off: fi.Size() * 2 / 3},
	} {
		f, err := os.Open(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		inj := faultfs.Wrap(f, fault)
		if _, err := store.ReadCheckpoint(io.NewSectionReader(inj, 0, fi.Size())); err == nil {
			t.Fatalf("checkpoint decoded despite fault %+v", fault)
		}
		if st := inj.Stats(); st.Reads == 0 {
			t.Fatalf("fault plan never touched a read (stats %+v)", st)
		}
		f.Close()
	}

	// Corrupt the current file at rest: LoadCheckpoint must fall back to the
	// previous generation (one cadence earlier), and resuming from it is
	// still bit-identical.
	cur, err := os.ReadFile(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	cur[len(cur)/2] ^= 0x10
	if err := os.WriteFile(ckPath, cur, 0o644); err != nil {
		t.Fatal(err)
	}
	c, from, err := store.LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if want := ckPath + store.CheckpointPrevSuffix; from != want {
		t.Fatalf("loaded %s, want the fallback %s", from, want)
	}
	if want := int64(2 * stream.BlockLen); c.Offset != want {
		t.Fatalf("fallback checkpoint at offset %d, want %d", c.Offset, want)
	}
	resumed, res := resumeFrom(t, name, g, k, c, crashed, ckPath, OutOfCoreOptions{})
	checkResumedRun(t, ref, refRes, crashed, resumed, res, c.Offset)

	// Corrupt the previous generation too: no usable checkpoint remains.
	prev, err := os.ReadFile(ckPath + store.CheckpointPrevSuffix)
	if err != nil {
		t.Fatal(err)
	}
	prev[len(prev)/3] ^= 0x01
	if err := os.WriteFile(ckPath+store.CheckpointPrevSuffix, prev, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(ckPath, cur, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.LoadCheckpoint(ckPath); err == nil {
		t.Fatal("LoadCheckpoint accepted a pair of corrupt checkpoints")
	}
}

// TestCheckpointResumeRejectsMismatch: a checkpoint that does not describe
// this exact run - wrong algorithm, k, graph geometry, a tampered offset,
// a durable prefix that is short or disagrees with the run, or a base file
// that is missing or belongs to another run - must be rejected, and the
// run must never resume (emit nothing past the prefix). Resuming it would
// silently produce wrong assignments, the one outcome the subsystem exists
// to prevent.
func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	g := checkpointTestGraph()
	k := 4
	type fixture struct {
		rec     *store.Checkpoint
		crashed []int32
		path    string
	}
	crash := func(name string, seed uint64) fixture {
		ckPath := filepath.Join(t.TempDir(), "run.cpk")
		p, err := New(name, seed)
		if err != nil {
			t.Fatal(err)
		}
		crashed := runUntilCrash(t, p, g, k, OutOfCoreOptions{
			Checkpoint: &CheckpointOptions{Path: ckPath, EveryEdges: ckCadence},
		}, ckCrashAt)
		c, _, err := store.LoadCheckpoint(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		return fixture{rec: c, crashed: crashed, path: ckPath}
	}
	hdrf, clugp, clugpOther := crash("HDRF", 3), crash("CLUGP", 3), crash("CLUGP", 4)

	other := gen.Web(gen.WebConfig{N: 6000, OutDegree: 5, IntraSite: 0.7, Seed: 17})
	cases := []struct {
		name   string
		algo   string
		k      int
		g      *graph.Graph
		fx     fixture
		mutate func(*store.Checkpoint)
		prefix func([]int32) []int32
		path   string // overrides the fixture's checkpoint path
		want   string
	}{
		{name: "wrong algorithm", algo: "Greedy", k: k, g: g, fx: hdrf, want: "algorithm"},
		{name: "wrong k", algo: "HDRF", k: k + 1, g: g, fx: hdrf, want: "k="},
		{name: "wrong geometry", algo: "HDRF", k: k, g: other, fx: hdrf, want: "vertices"},
		{name: "tampered edge count", algo: "HDRF", k: k, g: g, fx: hdrf,
			mutate: func(c *store.Checkpoint) { c.NumEdges++ }, want: "edges"},
		{name: "misaligned offset", algo: "HDRF", k: k, g: g, fx: hdrf,
			mutate: func(c *store.Checkpoint) { c.Offset++ }, want: "multiple"},
		{name: "non-checkpointer resume", algo: "DBH", k: k, g: g, fx: hdrf, want: "cannot restore"},
		{name: "prefix shorter than offset", algo: "HDRF", k: k, g: g, fx: hdrf,
			prefix: func(a []int32) []int32 { return a[:len(a)-1] }, want: "durable prefix"},
		{name: "prefix assignment out of range", algo: "HDRF", k: k, g: g, fx: hdrf,
			prefix: func(a []int32) []int32 { a[len(a)/3] = int32(k); return a }, want: "outside"},
		{name: "flipped CLUGP prefix assignment", algo: "CLUGP", k: k, g: g, fx: clugp,
			prefix: func(a []int32) []int32 { a[len(a)/2] = (a[len(a)/2] + 1) % int32(k); return a }, want: "computes"},
		{name: "missing base", algo: "CLUGP", k: k, g: g, fx: clugp,
			path: filepath.Join(t.TempDir(), "run.cpk"), want: "base"},
		{name: "base of another run", algo: "CLUGP", k: k, g: g, fx: clugp,
			path: clugpOther.path, want: "CRC"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cc := *tc.fx.rec
			if tc.mutate != nil {
				tc.mutate(&cc)
			}
			prefix := append([]int32(nil), tc.fx.crashed[:tc.fx.rec.Offset]...)
			if tc.prefix != nil {
				prefix = tc.prefix(prefix)
			}
			path := tc.fx.path
			if tc.path != "" {
				path = tc.path
			}
			p, err := New(tc.algo, 3)
			if err != nil {
				t.Fatal(err)
			}
			_, err = RunOutOfCoreOpts(p, stream.Of(tc.g.Edges).Source(tc.g.NumVertices), tc.k,
				func([]graph.Edge, []int32) error {
					t.Fatal("a rejected resume emitted assignments")
					return nil
				},
				OutOfCoreOptions{Checkpoint: &CheckpointOptions{Path: path,
					Resume: &Resume{Record: &cc, Prefix: PrefixOf(prefix)}}})
			if err == nil {
				t.Fatal("resume accepted a mismatched checkpoint")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestCheckpointNonCheckpointerFallsBack: asking for checkpoints from an
// algorithm that cannot rebuild its state from a durable prefix is not an
// error - the run
// completes without them - but the demotion is recorded in the pipeline
// info and no checkpoint file appears.
func TestCheckpointNonCheckpointerFallsBack(t *testing.T) {
	g := gen.Web(gen.WebConfig{N: 4000, OutDegree: 4, IntraSite: 0.7, Seed: 9})
	p, err := New("DBH", 3)
	if err != nil {
		t.Fatal(err)
	}
	ckPath := filepath.Join(t.TempDir(), "run.cpk")
	res, err := RunOutOfCore(p, stream.Of(g.Edges).Source(g.NumVertices), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	ckRes, err := RunOutOfCoreOpts(p, stream.Of(g.Edges).Source(g.NumVertices), 4, nil,
		OutOfCoreOptions{Checkpoint: &CheckpointOptions{Path: ckPath, EveryEdges: stream.BlockLen}})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ckRes.Quality, res.Quality) {
		t.Fatalf("checkpoint-demoted run changed quality: %+v vs %+v", ckRes.Quality, res.Quality)
	}
	if ckRes.Pipeline.Checkpoints.Enabled || ckRes.Pipeline.Checkpoints.Written != 0 {
		t.Fatalf("checkpoint stats %+v for an algorithm that cannot snapshot", ckRes.Pipeline.Checkpoints)
	}
	if !strings.Contains(ckRes.Pipeline.SerialFallback, "snapshot") {
		t.Fatalf("fallback note %q does not record the demotion", ckRes.Pipeline.SerialFallback)
	}
	if _, err := os.Stat(ckPath); !os.IsNotExist(err) {
		t.Fatalf("checkpoint file exists (stat err %v) though checkpointing was demoted", err)
	}
}

// TestPipelineReportsRetryAttempts: a retry-wrapped source surfaces its
// fired replay count through Result.Pipeline, and a clean source reads
// zero - the observability half of the stream.Retry contract.
func TestPipelineReportsRetryAttempts(t *testing.T) {
	g := faultTestGraph()
	path := writeCGR(t, g)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	p, err := New("HDRF", 3)
	if err != nil {
		t.Fatal(err)
	}
	// Faults pinned mid-payload, past everything open-time reads touch (the
	// file is large enough that open stays near the header and trailer), so
	// they fire during the streaming pass - against the retry wrapper, not
	// the open loop.
	plan := []faultfs.Fault{
		{Kind: faultfs.TransientError, Off: fi.Size() / 2},
		{Kind: faultfs.TransientError, Off: fi.Size() * 3 / 5},
	}
	src, inj, done := openFaulty(t, path, plan)
	defer done()
	_, res := collectAssignments(t, p, stream.Retry(src, retryInjected), 4, OutOfCoreOptions{})
	if st := inj.Stats(); st.TransientErrors == 0 {
		t.Fatalf("no transient fired (stats %+v); the run proved nothing", st)
	}
	if res.Pipeline.RetryAttempts == 0 {
		t.Fatal("pipeline info reports zero retry attempts despite fired faults")
	}

	_, cleanRes := collectAssignments(t, p, stream.Of(g.Edges).Source(g.NumVertices), 4, OutOfCoreOptions{})
	if cleanRes.Pipeline.RetryAttempts != 0 {
		t.Fatalf("clean run reports %d retry attempts", cleanRes.Pipeline.RetryAttempts)
	}
}
