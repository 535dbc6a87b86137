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

// checkpointAlgos is every algorithm that runs out of core. Each resumes
// by the one rule of the sink: recompute the run from edge 0 and check the
// durable prefix against it.
var checkpointAlgos = []string{"Hashing", "DBH", "Mint", "HDRF", "CLUGP", "CLUGP-S", "CLUGP-G", "CLUGP-D"}

// newCheckpointed builds name for the checkpoint tests, seeded 3. Mint
// plays 4096-edge batches instead of its default 6400: a record sits only
// where a committed batch ends on a BlockLen multiple, which 6400-edge
// batches reach first at 204,800 edges, past the end of the test graph.
// CLUGP-D runs 3 ingest nodes, so its shard windows start and end inside
// blocks.
func newCheckpointed(t *testing.T, name string) Partitioner {
	t.Helper()
	switch name {
	case "Mint":
		return &Mint{Seed: 3, BatchSize: 4096}
	case "CLUGP-D":
		return &DistributedCLUGP{Nodes: 3, Seed: 3}
	}
	p, err := New(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// memSource streams g's edges from memory in their stored order.
func memSource(g *graph.Graph) stream.Source { return stream.Of(g.Edges).Source(g.NumVertices) }

// runUntilCrash partitions src with checkpoints written to ckPath every
// ckCadence edges and kills the run (via errCrash from emit) once ckCrashAt
// assignments have been emitted, returning everything emitted up to the
// kill. Deterministic: batches are rebatched to BlockLen offsets whenever
// checkpointing is on, so the kill always lands at the same batch boundary.
func runUntilCrash(t *testing.T, p Partitioner, src stream.Source, k int, ckPath string) []int32 {
	t.Helper()
	var got []int32
	_, err := RunOutOfCoreOpts(p, src, k, func(edges []graph.Edge, a []int32) error {
		got = append(got, a...)
		if len(got) >= ckCrashAt {
			return errCrash
		}
		return nil
	}, OutOfCoreOptions{Checkpoint: &CheckpointOptions{Path: ckPath, EveryEdges: ckCadence}})
	if !errors.Is(err, errCrash) {
		t.Fatalf("crash run: got err %v, want the injected crash", err)
	}
	return got
}

// resumeFrom resumes from c over src, checking the durable prefix
// crashed[:Offset] the killed run emitted, and runs the tail, returning the
// resumed assignments and the result.
func resumeFrom(t *testing.T, name string, src stream.Source, k int, c *store.Checkpoint, crashed []int32, ckPath string) ([]int32, *Result) {
	t.Helper()
	p := newCheckpointed(t, name)
	opts := OutOfCoreOptions{Checkpoint: &CheckpointOptions{Path: ckPath, EveryEdges: ckCadence,
		Resume: &Resume{Record: c, Prefix: PrefixOf(crashed[:c.Offset])}}}
	var got []int32
	res, err := RunOutOfCoreOpts(p, src, k, func(edges []graph.Edge, a []int32) error {
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
// checkpoint subsystem: kill each out-of-core algorithm at a deterministic
// batch boundary, resume a fresh partitioner from the checkpoint on disk,
// and require the stitched run to be bit-identical - per-edge assignments
// and quality - to an uninterrupted one. Subtest decode=N crashes and
// resumes over a CGR3 mmap source at GOMAXPROCS N: at 1 the source decodes
// inline, at 4 ahead of the partitioner on a second goroutine. Checkpoints
// are written at one configuration and restored at the same one here;
// cross-configuration restore has its own test below.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	g := checkpointTestGraph()
	k := 4
	if len(g.Edges) < ckCrashAt+ckCadence {
		t.Fatalf("test graph has %d edges, need at least %d", len(g.Edges), ckCrashAt+ckCadence)
	}
	src, err := store.OpenMmap(writeCGR(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	for _, name := range checkpointAlgos {
		ref, refRes := collectAssignments(t, newCheckpointed(t, name), memSource(g), k)
		for _, procs := range []int{1, 4} {
			t.Run(fmt.Sprintf("%s/decode=%d", name, procs), func(t *testing.T) {
				ckPath := filepath.Join(t.TempDir(), "run.cpk")
				crashP := newCheckpointed(t, name)
				var crashed, resumed []int32
				var err error
				var res *Result
				var c *store.Checkpoint
				withProcs(procs, func() {
					crashed = runUntilCrash(t, crashP, src, k, ckPath)
					var from string
					c, from, err = store.LoadCheckpoint(ckPath)
					if err != nil {
						t.Fatal(err)
					}
					if from != ckPath {
						t.Fatalf("loaded %s, want the current checkpoint %s", from, ckPath)
					}
					if want := int64(4 * stream.BlockLen); c.Offset != want {
						t.Fatalf("checkpoint at offset %d, want %d", c.Offset, want)
					}
					resumed, res = resumeFrom(t, name, src, k, c, crashed, ckPath)
				})
				if ahead := procs > 1; res.Pipeline.DecodeAhead != ahead {
					t.Fatalf("resumed run: DecodeAhead %v, want %v", res.Pipeline.DecodeAhead, ahead)
				}
				checkResumedRun(t, ref, refRes, crashed, resumed, res, c.Offset)
			})
		}
	}
}

// TestCheckpointResumeAcrossConfigurations: a checkpoint record holds no
// state laid out for a decode configuration - the resume recomputes the
// run and checks it against the durable prefix - so a record written under
// one configuration resumes
// bit-identically under another. Over a CGR3 file a run crashes while the
// source decodes ahead (GOMAXPROCS 2) and resumes with it decoding inline
// (GOMAXPROCS 1), and the reverse: a crashed multi-core run can resume on a
// 1-core box and vice versa.
func TestCheckpointResumeAcrossConfigurations(t *testing.T) {
	g := checkpointTestGraph()
	k := 4
	src, err := store.OpenMmap(writeCGR(t, g))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	mode := map[int]string{1: "inline", 2: "ahead"}
	for _, name := range checkpointAlgos {
		ref, refRes := collectAssignments(t, newCheckpointed(t, name), memSource(g), k)
		for _, dir := range []struct{ crash, resume int }{{2, 1}, {1, 2}} {
			t.Run(fmt.Sprintf("%s/crash=%s,resume=%s", name, mode[dir.crash], mode[dir.resume]), func(t *testing.T) {
				ckPath := filepath.Join(t.TempDir(), "run.cpk")
				crashP := newCheckpointed(t, name)
				var crashed []int32
				withProcs(dir.crash, func() { crashed = runUntilCrash(t, crashP, src, k, ckPath) })
				c, _, err := store.LoadCheckpoint(ckPath)
				if err != nil {
					t.Fatal(err)
				}
				var resumed []int32
				var res *Result
				withProcs(dir.resume, func() { resumed, res = resumeFrom(t, name, src, k, c, crashed, ckPath) })
				if ahead := dir.resume == 2; res.Pipeline.DecodeAhead != ahead {
					t.Fatalf("resumed run: DecodeAhead %v, want %v", res.Pipeline.DecodeAhead, ahead)
				}
				checkResumedRun(t, ref, refRes, crashed, resumed, res, c.Offset)
			})
		}
	}
}

// TestCheckpointResumeStraddlingCommit: a committed run that straddles the
// resume offset is checked up to the offset and emits the rest. Mint at its
// default 6400-edge batches commits [6400, 12800), across a record at one
// block; the resumed tail must be the clean run's from there on.
func TestCheckpointResumeStraddlingCommit(t *testing.T) {
	g := checkpointTestGraph()
	k := 4
	ref, refRes := collectAssignments(t, &Mint{Seed: 3}, memSource(g), k)
	c := &store.Checkpoint{Algorithm: "Mint", K: k, NumVertices: g.NumVertices, NumEdges: int64(len(g.Edges)),
		Offset: stream.BlockLen}
	var resumed []int32
	res, err := RunOutOfCoreOpts(&Mint{Seed: 3}, memSource(g), k, func(_ []graph.Edge, a []int32) error {
		resumed = append(resumed, a...)
		return nil
	}, OutOfCoreOptions{Checkpoint: &CheckpointOptions{Resume: &Resume{Record: c, Prefix: PrefixOf(ref[:c.Offset])}}})
	if err != nil {
		t.Fatal(err)
	}
	checkResumedRun(t, ref, refRes, ref, resumed, res, c.Offset)
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
	ref, refRes := collectAssignments(t, p, memSource(g), k)

	ckPath := filepath.Join(t.TempDir(), "run.cpk")
	crashP, err := New(name, 3)
	if err != nil {
		t.Fatal(err)
	}
	crashed := runUntilCrash(t, crashP, memSource(g), k, ckPath)

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
	resumed, res := resumeFrom(t, name, memSource(g), k, c, crashed, ckPath)
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
// or a durable prefix that is short or disagrees with the run's own
// recomputation - must be rejected, and the run must never resume (emit
// nothing past the prefix). Resuming it would silently produce wrong
// assignments, the one outcome the subsystem exists to prevent.
func TestCheckpointResumeRejectsMismatch(t *testing.T) {
	g := checkpointTestGraph()
	k := 4
	type fixture struct {
		rec     *store.Checkpoint
		crashed []int32
		path    string
	}
	crash := func(name string) fixture {
		ckPath := filepath.Join(t.TempDir(), "run.cpk")
		crashed := runUntilCrash(t, newCheckpointed(t, name), memSource(g), k, ckPath)
		c, _, err := store.LoadCheckpoint(ckPath)
		if err != nil {
			t.Fatal(err)
		}
		return fixture{rec: c, crashed: crashed, path: ckPath}
	}
	hdrf, clugp := crash("HDRF"), crash("CLUGP")
	flip := func(a []int32) []int32 { a[len(a)/2] = (a[len(a)/2] + 1) % int32(k); return a }

	other := gen.Web(gen.WebConfig{N: 6000, OutDegree: 5, IntraSite: 0.7, Seed: 17})
	cases := []struct {
		name   string
		algo   string
		k      int
		g      *graph.Graph
		fx     fixture
		mutate func(*store.Checkpoint)
		prefix func([]int32) []int32
		want   string
	}{
		{name: "wrong algorithm", algo: "CLUGP", k: k, g: g, fx: hdrf, want: "algorithm"},
		{name: "wrong k", algo: "HDRF", k: k + 1, g: g, fx: hdrf, want: "k="},
		{name: "wrong geometry", algo: "HDRF", k: k, g: other, fx: hdrf, want: "vertices"},
		{name: "tampered edge count", algo: "HDRF", k: k, g: g, fx: hdrf,
			mutate: func(c *store.Checkpoint) { c.NumEdges++ }, want: "edges"},
		{name: "misaligned offset", algo: "HDRF", k: k, g: g, fx: hdrf,
			mutate: func(c *store.Checkpoint) { c.Offset++ }, want: "multiple"},
		// Greedy, which never runs out of core, is the one algorithm left
		// that cannot checkpoint.
		{name: "non-checkpointer resume", algo: "Greedy", k: k, g: g, fx: hdrf, want: "cannot run out of core"},
		{name: "prefix shorter than offset", algo: "HDRF", k: k, g: g, fx: hdrf,
			prefix: func(a []int32) []int32 { return a[:len(a)-1] }, want: "durable prefix"},
		{name: "prefix assignment out of range", algo: "HDRF", k: k, g: g, fx: hdrf,
			prefix: func(a []int32) []int32 { a[len(a)/3] = int32(k); return a }, want: "computes"},
		{name: "flipped HDRF prefix assignment", algo: "HDRF", k: k, g: g, fx: hdrf, prefix: flip, want: "computes"},
		{name: "flipped CLUGP prefix assignment", algo: "CLUGP", k: k, g: g, fx: clugp, prefix: flip, want: "computes"},
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
			_, err := RunOutOfCoreOpts(newCheckpointed(t, tc.algo), stream.Of(tc.g.Edges).Source(tc.g.NumVertices), tc.k,
				func([]graph.Edge, []int32) error {
					t.Fatal("a rejected resume emitted assignments")
					return nil
				},
				OutOfCoreOptions{Checkpoint: &CheckpointOptions{Path: tc.fx.path,
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
	_, res := collectAssignments(t, p, stream.Retry(src, retryInjected), 4)
	if st := inj.Stats(); st.TransientErrors == 0 {
		t.Fatalf("no transient fired (stats %+v); the run proved nothing", st)
	}
	if res.Pipeline.RetryAttempts == 0 {
		t.Fatal("pipeline info reports zero retry attempts despite fired faults")
	}

	_, cleanRes := collectAssignments(t, p, memSource(g), 4)
	if cleanRes.Pipeline.RetryAttempts != 0 {
		t.Fatalf("clean run reports %d retry attempts", cleanRes.Pipeline.RetryAttempts)
	}
}
