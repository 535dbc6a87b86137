// Command clugp partitions a graph with any of the reproduced algorithms
// and reports the quality metrics of Section II-B. Input is an edge-list
// file ("src dst" per line), a compressed .cgr (CGR3) file, or a generated
// preset.
//
// Usage:
//
//	clugp -in graph.txt -k 32                      # CLUGP, default knobs
//	clugp -in graph.txt -k 64 -algo HDRF
//	clugp -preset IT -k 128 -algo CLUGP -tau 1.05 -assign out.txt
//	clugp -in graph.cgr -stream -k 32              # out-of-core: O(|V|) heap
//	clugp -in graph.cgr -stream -trace             # pass diagnostics, pipeline and max-RSS report
//	clugp -in graph.cgr -stream -cpuprofile cpu.pb # pprof profiles (-memprofile heap.pb)
//	clugp -in graph.txt -recompress graph.cgr      # compress a text edge list to CGR3
//	clugp -in graph.cgr -stream -result run.cpr    # save a serveable result for cmd/partsrv
//	clugp -in graph.cgr -verify -stream -k 32      # checksum-scan the input up front
//	clugp -in g.cgr -stream -assign a.txt -checkpoint run.cpk    # crash-tolerant
//	clugp -in g.cgr -stream -assign a.txt -checkpoint run.cpk -resume   # continue an interrupted run
//	clugp -in g.cgr -stream -retry 5               # survive transient read faults by replaying
//
// With -checkpoint the run writes small checkpoint records (CPK2 format,
// CRC-protected, atomically rotated with a .prev fallback) at batch
// boundaries, for every algorithm that runs with -stream. A record points
// into the -assign file, which it makes durable first, so -checkpoint
// needs -assign. -resume loads the newest intact record and reruns the
// whole stream from the start: every assignment the rerun makes before the
// record's offset must equal the durable one in the -assign file (each
// line is also checked against the stream's edge), and the run continues
// writing from the record's offset. Nothing is written to -assign before
// the record and the prefix have been checked, so a resume that is refused
// (a wrong -k, -algo, -in or -assign) leaves it as the crash left it. The
// resumed run's assignment, quality and -result are bit-identical to an
// uninterrupted one's. A corrupt record is detected by its CRC and skipped
// in favor of the previous one, never resumed from.
//
// Every file this command writes (-assign, -result, -recompress) goes
// through an atomic temp-file + rename protocol, so a crash or write error
// never leaves a truncated artifact at the final path. -verify
// checksum-scans the input before using it and fails fast on the first
// corrupt block. Files in the retired CGR1, CGR2 and CPR1 formats are
// rejected by their magic; regenerate them with cmd/genweb -binary, or
// with -recompress from the text edge list.
//
// With -stream the input must be a .cgr file (see cmd/genweb -binary). It
// is mapped once, so repeat passes run at page-cache speed (with a
// portable read-at fallback where mapping is unavailable), and it is
// partitioned in its stored (crawl) order without ever loading the
// edge list: the partitioner re-streams the file for each pass and the
// assignment is written (or discarded) as it is produced, so peak heap is
// the algorithm's O(|V|) state (CLUGP adds 4 bytes per crossing edge while
// it builds its cluster graph), not the edge list. "state memory:" is the
// most the algorithm's own tables held at once, summed from their sizes
// where they are allocated (Result.StateBytes); -trace prints CLUGP's
// state at the end of each phase and, on a line of its own, the replica
// table the run's quality accounting holds beside it. BFS and Random orders
// need the graph in memory to reorder it; natural order is exactly the
// crawl order the paper grants CLUGP and Mint, so the streaming mode covers
// the paper's headline configuration. The file decodes ahead of the
// partitioner on a second goroutine at GOMAXPROCS >= 2 and inline at 1;
// -trace prints which ran, and the assignment is identical either way.
package main

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro"
)

func main() {
	var (
		in      = flag.String("in", "", "input edge-list or .cgr file")
		preset  = flag.String("preset", "", "generate a dataset preset instead of reading a file")
		scale   = flag.Float64("scale", 1.0, "preset scale factor")
		algo    = flag.String("algo", "CLUGP", "algorithm: Hashing, DBH, Greedy, HDRF, Mint, CLUGP, CLUGP-S, CLUGP-G")
		k       = flag.Int("k", 32, "number of partitions")
		seed    = flag.Uint64("seed", 42, "seed for stochastic components")
		tau     = flag.Float64("tau", 0, "CLUGP imbalance factor (default 1.0)")
		weight  = flag.Float64("weight", 0, "CLUGP relative load-balance weight (default 0.5)")
		batch   = flag.Int("batch", 0, "CLUGP game batch size (default 6400)")
		thr     = flag.Int("threads", 0, "CLUGP game threads (default GOMAXPROCS)")
		out     = flag.String("assign", "", "write per-edge partition assignment to this file")
		resultF = flag.String("result", "", "write the serveable partition result (.cpr, for cmd/partsrv) to this file")
		trace   = flag.Bool("trace", false, "print CLUGP per-pass diagnostics and max RSS")
		streamF = flag.Bool("stream", false, "out-of-core mode: partition a .cgr file without loading it")
		cpuprof = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		recomp  = flag.String("recompress", "", "write the loaded graph back out compressed (CGR3) to this file, then exit")
		verifyF = flag.Bool("verify", false, "checksum-scan the -in file before using it")
		ckPath  = flag.String("checkpoint", "", "write crash-recovery checkpoints to this file during -stream (the previous one rotates to .prev)")
		ckEvery = flag.Int("checkpoint-every", 0, "checkpoint cadence in edges (default: ~1/16 of the stream)")
		resumeF = flag.Bool("resume", false, "resume an interrupted -stream run from -checkpoint (falls back to .prev if the newest is corrupt)")
		retryF  = flag.Int("retry", 0, "with -stream, survive transient read faults: attempt each stream position up to N times (0 = no retry wrapper)")
	)
	flag.Parse()

	// An interrupt mid-write must not litter temp files next to the outputs:
	// sweep every pending atomic write on the way out. Checkpointed runs are
	// the exception that survives the kill - their state is already on disk.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		if n := repro.AbortPendingWrites(); n > 0 {
			fmt.Fprintf(os.Stderr, "clugp: %v: swept %d pending write(s)\n", s, n)
		} else {
			fmt.Fprintf(os.Stderr, "clugp: %v\n", s)
		}
		stopProfiles()
		os.Exit(1)
	}()

	o := runOpts{
		in:         *in,
		preset:     *preset,
		scale:      *scale,
		seed:       *seed,
		stream:     *streamF,
		k:          *k,
		out:        *out,
		resultPath: *resultF,
		ckPath:     *ckPath,
		ckEvery:    *ckEvery,
		resume:     *resumeF,
		retry:      *retryF,
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := checkRunFlags(set, o); err != nil {
		fail(err)
	}

	stop, err := startProfiles(*cpuprof, *memprof)
	if err != nil {
		fail(err)
	}
	stopProfiles = stop
	defer stop()

	if *verifyF {
		if *in == "" {
			fail(fmt.Errorf("-verify needs -in FILE"))
		}
		info, err := repro.VerifyFile(*in)
		if err != nil {
			fail(err)
		}
		fmt.Printf("verified: %s, %d blocks over %d payload bytes\n", info.Kind, info.Blocks, info.PayloadBytes)
	}

	if *recomp != "" {
		if err := recompress(*in, *preset, *scale, *recomp); err != nil {
			fail(err)
		}
		return
	}

	p, err := buildPartitioner(*algo, *seed, set, *tau, *weight, *batch, *thr)
	if err != nil {
		fail(err)
	}

	res, err := run(p, o)
	if err != nil {
		fail(err)
	}

	q := res.Quality
	fmt.Printf("algorithm:          %s (stream order %s)\n", res.Algorithm, res.Order)
	fmt.Printf("partitions:         %d\n", q.K)
	fmt.Printf("replication factor: %.4f\n", q.ReplicationFactor)
	fmt.Printf("relative balance:   %.4f (max %d, min %d edges)\n", q.RelativeBalance, q.MaxSize, q.MinSize)
	fmt.Printf("runtime:            %v\n", res.Runtime.Round(time.Millisecond))
	if res.StateBytes > 0 {
		fmt.Printf("state memory:       %.2f MB\n", float64(res.StateBytes)/(1<<20))
	}
	if *trace {
		if c, ok := p.(*repro.CLUGP); ok {
			printCLUGPTrace(os.Stdout, c)
		}
		printReplicas(os.Stdout, res)
		if *streamF {
			pl := res.Pipeline
			fmt.Printf("pipeline:           %s\n", pipelineLine(pl.DecodeAhead, pl.AccountingAhead))
			if cks := pl.Checkpoints; cks.Enabled || cks.Resumed {
				fmt.Printf("checkpoints:        %s\n", cks)
			}
			if *retryF > 0 || pl.RetryAttempts > 0 {
				fmt.Printf("stream retries:     %d attempt(s) fired\n", pl.RetryAttempts)
			}
		}
		printBoundary(os.Stdout, res)
		// The paper's Figure 6 claim is about partitioner memory; report what
		// the process actually held - the kernel's peak resident set, heap
		// and all - so the bounded-memory mode is observable.
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		if rss, ok := maxRSS(); ok {
			fmt.Printf("max RSS:            %.2f MB (%.2f MB allocated in total)\n",
				float64(rss)/(1<<20), float64(m.TotalAlloc)/(1<<20))
		} else {
			fmt.Printf("allocated:          %.2f MB in total (max RSS unavailable on %s)\n",
				float64(m.TotalAlloc)/(1<<20), runtime.GOOS)
		}
	}

	if *out != "" {
		fmt.Printf("assignment written: %s\n", *out)
	}
	if *resultF != "" {
		fmt.Printf("result written:     %s (serve it: partsrv -result %s)\n", *resultF, *resultF)
	}
}

// printBoundary prints the run's phase boundaries, if it declared any: the
// collection the executor runs once the CLUGP family's passes 1 and 2 have
// returned, with the heap in use around the last one.
func printBoundary(w io.Writer, res *repro.PartitionResult) {
	b := res.Pipeline.Boundary
	if b.Collections == 0 {
		return
	}
	fmt.Fprintf(w, "phase boundary:     heap in use %.2f -> %.2f MB across the collection after passes 1 and 2 (%d collection(s))\n",
		float64(b.HeapBefore)/(1<<20), float64(b.HeapAfter)/(1<<20), b.Collections)
}

// printCLUGPTrace prints the diagnostics of c's last run, if any. The pass
// times carry the names pipebench's layers give them. They are wall times
// of whole passes: unlike pipebench's layers, they include the time spent
// decoding the stream and in the emit callback.
func printCLUGPTrace(w io.Writer, c *repro.CLUGP) {
	t := c.LastTrace
	if t == nil {
		return
	}
	fmt.Fprintf(w, "clusters:           %d (intra fraction %.3f)\n", t.NumClusters, t.IntraFraction)
	fmt.Fprintf(w, "splits/migrations:  %d / %d\n", t.Splits, t.Migrations)
	fmt.Fprintf(w, "game:               %d rounds, %d moves, %d batches (healed %.3f)\n",
		t.GameRounds, t.GameMoves, t.GameBatches, t.HealedFraction)
	fmt.Fprintf(w, "overflow reroutes:  %d\n", t.Overflowed)
	fmt.Fprintf(w, "pass times:         cluster.run_s %.3f  cluster.build_s %.3f  game.solve_s %.3f  partition.transform_s %.3f\n",
		t.ClusterTime.Seconds(), t.BuildTime.Seconds(), t.GameTime.Seconds(), t.TransformTime.Seconds())
	fmt.Fprintf(w, "phase state (MB):   cluster %.2f  build %.2f  game %.2f  transform %.2f\n",
		mb(t.ClusterBytes), mb(t.BuildBytes), mb(t.GameBytes), mb(t.TransformBytes))
}

// printReplicas prints the quality accounting's replica table, which state memory leaves out.
func printReplicas(w io.Writer, res *repro.PartitionResult) {
	fmt.Fprintf(w, "replica table:      %.2f MB (quality accounting, not in state memory)\n", mb(res.Replicas.Bytes()))
}

func mb(bytes int64) float64 { return float64(bytes) / (1 << 20) }

// buildPartitioner constructs algo from the registry and applies the CLUGP
// knobs to every CLUGP-family algorithm; set names the flags given on the
// command line. A knob the algorithm would ignore is an error naming its
// flag: only the CLUGP family reads them, and CLUGP-G, which places
// clusters greedily, plays no game for -weight, -batch or -threads to tune.
func buildPartitioner(algo string, seed uint64, set map[string]bool, tau, weight float64, batch, thr int) (repro.Partitioner, error) {
	p, err := repro.NewPartitioner(algo, seed)
	if err != nil {
		return nil, err
	}
	c, family := p.(*repro.CLUGP)
	for _, name := range []string{"tau", "weight", "batch", "threads"} {
		switch {
		case !set[name]:
		case !family:
			return nil, fmt.Errorf("-%s applies only to the CLUGP family (CLUGP, CLUGP-S, CLUGP-G), not to %s", name, algo)
		case c.GreedyAssign && name != "tau":
			return nil, fmt.Errorf("-%s tunes the partitioning game, which %s replaces with greedy placement", name, algo)
		}
	}
	if family {
		c.Tau, c.RelWeight, c.BatchSize, c.Threads = tau, weight, batch, thr
	}
	return p, nil
}

// checkRunFlags rejects flag combinations in which a flag would have no
// effect or the run could not honour it; set names the flags given on the
// command line.
func checkRunFlags(set map[string]bool, o runOpts) error {
	switch {
	case o.retry < 0:
		return fmt.Errorf("-retry %d: the attempt count cannot be negative", o.retry)
	case o.ckEvery < 0:
		return fmt.Errorf("-checkpoint-every %d: the cadence cannot be negative", o.ckEvery)
	case (o.ckPath != "" || o.resume) && !o.stream:
		return fmt.Errorf("-checkpoint/-resume need -stream (checkpoints point into the out-of-core pass's durable output)")
	case o.resume && o.ckPath == "":
		return fmt.Errorf("-resume needs -checkpoint FILE to resume from")
	case o.ckPath != "" && o.out == "":
		return fmt.Errorf("-checkpoint needs -assign FILE: a checkpoint points into the durable assignment, which a resume replays")
	case set["checkpoint-every"] && o.ckPath == "":
		return fmt.Errorf("-checkpoint-every needs -checkpoint FILE")
	case set["retry"] && !o.stream:
		return fmt.Errorf("-retry needs -stream (only the out-of-core pass re-reads its input)")
	}
	return nil
}

// runOpts bundles one run's configuration.
type runOpts struct {
	in, preset string
	scale      float64
	seed       uint64
	stream     bool
	k          int
	out        string
	resultPath string
	ckPath     string
	ckEvery    int
	resume     bool
	retry      int
}

// run partitions through the in-memory or the -stream path, then saves
// -result from the table the run's own quality accounting sealed
// (SavedResultFromRun), so neither path keeps a second replica table.
func run(p repro.Partitioner, o runOpts) (*repro.PartitionResult, error) {
	var res *repro.PartitionResult
	var err error
	if o.stream {
		res, err = runStreaming(p, o)
	} else {
		res, err = runInMemory(p, o)
	}
	if err != nil {
		return nil, err
	}
	if o.resultPath != "" {
		if err := writeResult(o.resultPath, res); err != nil {
			return nil, err
		}
	}
	if o.ckPath != "" {
		// The run completed and its outputs are written, so its
		// checkpoints are obsolete; a later -resume against them would
		// truncate the finished output.
		for _, suffix := range []string{"", repro.CheckpointPrevSuffix} {
			os.Remove(o.ckPath + suffix)
		}
	}
	return res, nil
}

// runInMemory is the classic path: load (or generate) the whole graph, then
// partition it under the algorithm's preferred order.
func runInMemory(p repro.Partitioner, o runOpts) (*repro.PartitionResult, error) {
	g, err := repro.LoadGraph(o.in, o.preset, o.scale)
	if err != nil {
		return nil, err
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices, g.NumEdges())
	res, err := repro.RunPartitioner(p, g, o.k, o.seed)
	if err != nil {
		return nil, err
	}
	if o.out != "" {
		if err := writeAssign(o.out, res); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// pipelineLine describes how the out-of-core pass decoded and applied its
// quality accounting: each ahead of or behind the partitioner on a
// goroutine of its own (at GOMAXPROCS >= 2) or inline.
func pipelineLine(decodeAhead, accountingAhead bool) string {
	line := "decode inline"
	if decodeAhead {
		line = "decode ahead of the partitioner on a second goroutine"
	}
	if accountingAhead {
		return line + ", accounting applied on its own goroutine"
	}
	return line + ", accounting inline"
}

// runStreaming is the out-of-core path: the .cgr file is the stream; the
// assignment is emitted as it is produced and never materialized. The
// file source decodes ahead of the partitioner at GOMAXPROCS >= 2; the
// emitted assignment and quality are identical to the inline pass.
//
// With checkpointing the -assign file is written as a plain persistent file
// instead of an atomic temp+rename: the records point into it, and a resume
// checks the interrupted run's output up to a record's watermark and
// continues it from there, which a temp file that died with the process
// cannot offer.
func runStreaming(p repro.Partitioner, o runOpts) (*repro.PartitionResult, error) {
	in, k, out := o.in, o.k, o.out
	if in == "" {
		return nil, fmt.Errorf("-stream needs -in FILE.cgr")
	}
	src, err := repro.OpenCompressed(in)
	if err != nil {
		return nil, fmt.Errorf("-stream needs a compressed .cgr input: %w", err)
	}
	defer src.Close()
	mode := "mmap"
	if !src.Mapped() {
		mode = "read-at fallback"
	}
	fmt.Printf("graph: %d vertices, %d edges (streaming %s from %s, %s, %.2f bytes/edge)\n",
		src.NumVertices(), src.Len(), src.Format(), in, mode, bytesPerEdge(src.SizeBytes(), src.Len()))

	var source repro.StreamSource = src
	if o.retry > 0 {
		source = repro.RetryStream(source, repro.StreamRetryConfig{MaxAttempts: o.retry})
	}

	var w *bufio.Writer
	var aw *repro.AtomicWriter
	var pf *os.File
	var ck *repro.CheckpointOptions
	var cw *countingWriter
	if o.ckPath != "" {
		ck = &repro.CheckpointOptions{Path: o.ckPath, EveryEdges: o.ckEvery}
		// A fresh run starts its output afresh; a resumed one opens the
		// interrupted run's output without creating or cutting it.
		flags := os.O_WRONLY | os.O_CREATE | os.O_TRUNC
		if o.resume {
			flags = os.O_WRONLY
		}
		pf, err = os.OpenFile(out, flags, 0o644)
		if err != nil {
			return nil, err
		}
		defer pf.Close()
		var mark int64
		if o.resume {
			c, from, err := repro.LoadCheckpoint(o.ckPath)
			if err != nil {
				return nil, fmt.Errorf("resume: %w", err)
			}
			fmt.Printf("resuming: %s from offset %d/%d edges (%s)\n", c.Algorithm, c.Offset, c.NumEdges, from)
			// The run writes its tail over whatever the interrupted run
			// emitted past the watermark, and the file is cut to its final
			// length once the run completes. The run checks the record and
			// the durable prefix before it emits anything, so a refused
			// resume leaves the file as the crash left it.
			mark = c.EmitMark
			if _, err := pf.Seek(mark, io.SeekStart); err != nil {
				return nil, err
			}
			rf, err := os.Open(out)
			if err != nil {
				return nil, err
			}
			defer rf.Close()
			ck.Resume = &repro.CheckpointResume{Record: c, Prefix: &assignPrefix{
				r: bufio.NewReaderSize(io.LimitReader(rf, mark), 1<<16),
			}}
		}
		cw = &countingWriter{w: pf, n: mark}
		w = bufio.NewWriterSize(cw, 1<<16)
		ck.EmitMark = func() (int64, error) {
			if err := w.Flush(); err != nil {
				return 0, err
			}
			if err := pf.Sync(); err != nil {
				return 0, err
			}
			return cw.n, nil
		}
	} else if out != "" {
		aw, err = repro.NewAtomicWriter(out)
		if err != nil {
			return nil, err
		}
		defer aw.Abort()
		w = bufio.NewWriterSize(aw, 1<<16)
	}
	var buf []byte
	emit := func(edges []repro.Edge, assign []int32) error {
		if w == nil {
			return nil
		}
		for i, e := range edges {
			buf = appendAssignLine(buf[:0], e, assign[i])
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	}
	res, err := repro.RunOutOfCoreOpts(p, source, k, emit, repro.OutOfCoreOptions{
		Checkpoint: ck,
	})
	if err != nil {
		return nil, err
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return nil, err
		}
		if aw != nil {
			if err := aw.Commit(); err != nil {
				return nil, err
			}
		} else {
			// Drop what the interrupted run emitted past this run's end.
			if err := pf.Truncate(cw.n); err != nil {
				return nil, err
			}
			if err := pf.Sync(); err != nil {
				return nil, err
			}
			if err := pf.Close(); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// assignPrefix reads the durable prefix of an interrupted run back from its
// -assign file, checking each "src dst partition" line against the edge
// the stream holds at that position.
type assignPrefix struct {
	r    *bufio.Reader
	line int
}

func (a *assignPrefix) ReadPrefix(edges []repro.Edge, assign []int32) error {
	for i, e := range edges {
		a.line++
		text, err := a.r.ReadSlice('\n')
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return fmt.Errorf("-assign line %d: %w", a.line, err)
		}
		f := bytes.Fields(text)
		if len(f) != 3 {
			return fmt.Errorf("-assign line %d: %q is not \"src dst partition\"", a.line, text)
		}
		u, errU := strconv.ParseUint(string(f[0]), 10, 32)
		v, errV := strconv.ParseUint(string(f[1]), 10, 32)
		p, errP := strconv.ParseInt(string(f[2]), 10, 32)
		if errU != nil || errV != nil || errP != nil || u != uint64(e.Src) || v != uint64(e.Dst) {
			return fmt.Errorf("-assign line %d: %q does not assign the stream's edge %d %d", a.line, bytes.TrimSpace(text), e.Src, e.Dst)
		}
		assign[i] = int32(p)
	}
	return nil
}

// countingWriter tracks the byte offset of the persistent assign stream, so
// checkpoints can record the emit watermark a resume truncates to.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// writeResult saves a run's serveable partition result (.cpr) atomically.
func writeResult(path string, res *repro.PartitionResult) error {
	saved, err := repro.SavedResultFromRun(res)
	if err != nil {
		return err
	}
	w, err := repro.NewAtomicWriter(path)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := repro.WriteSavedResult(w, saved); err != nil {
		return err
	}
	return w.Commit()
}

// recompress loads a graph (text, CGR3 or a preset) and writes it out as
// CGR3. The output is written atomically, so an existing file at out is
// never torn.
func recompress(in, preset string, scale float64, out string) error {
	g, err := repro.LoadGraph(in, preset, scale)
	if err != nil {
		return err
	}
	w, err := repro.NewAtomicWriter(out)
	if err != nil {
		return err
	}
	defer w.Abort()
	if err := repro.WriteCompressed(w, g); err != nil {
		return err
	}
	if err := w.Commit(); err != nil {
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s, %d vertices, %d edges, %.2f bytes/edge\n",
		out, repro.FormatCGR3, g.NumVertices, g.NumEdges(), bytesPerEdge(fi.Size(), g.NumEdges()))
	return nil
}

// bytesPerEdge guards the empty-graph division.
func bytesPerEdge(size int64, edges int) float64 {
	if edges == 0 {
		return 0
	}
	return float64(size) / float64(edges)
}

// writeAssign emits "src dst partition" lines aligned with the stream order
// actually partitioned, replaying the result's stream. The file appears at
// path only once complete.
func writeAssign(path string, res *repro.PartitionResult) error {
	aw, err := repro.NewAtomicWriter(path)
	if err != nil {
		return err
	}
	defer aw.Abort()
	w := bufio.NewWriterSize(aw, 1<<16)
	var buf []byte
	err = repro.ForEachStreamed(res.Stream, func(off int, edges []repro.Edge) error {
		for i, e := range edges {
			buf = appendAssignLine(buf[:0], e, res.Assign[off+i])
			if _, err := w.Write(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	return aw.Commit()
}

func appendAssignLine(buf []byte, e repro.Edge, p int32) []byte {
	buf = strconv.AppendUint(buf, uint64(e.Src), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendUint(buf, uint64(e.Dst), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(p), 10)
	return append(buf, '\n')
}

// stopProfiles flushes any active -cpuprofile/-memprofile collection; fail
// routes through it so profiles survive error exits.
var stopProfiles = func() {}

// startProfiles begins CPU profiling and/or arranges a heap snapshot. The
// returned stop is idempotent: it ends the CPU profile and writes the heap
// profile after a GC, so the snapshot shows live memory.
func startProfiles(cpu, mem string) (func(), error) {
	var cpuF *os.File
	if cpu != "" {
		f, err := os.Create(cpu)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuF = f
	}
	var once sync.Once
	return func() {
		once.Do(func() {
			if cpuF != nil {
				pprof.StopCPUProfile()
				cpuF.Close()
			}
			if mem != "" {
				f, err := os.Create(mem)
				if err != nil {
					fmt.Fprintln(os.Stderr, "clugp: -memprofile:", err)
					return
				}
				runtime.GC()
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintln(os.Stderr, "clugp: -memprofile:", err)
				}
				f.Close()
			}
		})
	}, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "clugp:", err)
	stopProfiles()
	os.Exit(1)
}
