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
//	clugp -in graph.cgr -stream -workers 4         # parallel hot pass, identical results
//	clugp -in graph.cgr -stream -trace             # pass diagnostics, pipeline and peak-heap report
//	clugp -in graph.cgr -stream -cpuprofile cpu.pb # pprof profiles (-memprofile heap.pb)
//	clugp -in graph.txt -recompress graph.cgr      # compress a text edge list to CGR3
//	clugp -in graph.cgr -stream -result run.cpr    # save a serveable result for cmd/partsrv
//	clugp -in graph.cgr -verify -stream -k 32      # checksum-scan the input up front
//	clugp -in g.cgr -stream -assign a.txt -checkpoint run.cpk    # crash-tolerant
//	clugp -in g.cgr -stream -assign a.txt -checkpoint run.cpk -resume   # continue an interrupted run
//	clugp -in g.cgr -stream -retry 5               # survive transient read faults by replaying
//
// With -checkpoint the run writes small checkpoint records (CPK1 format,
// CRC-protected, atomically rotated with a .prev fallback) at batch
// boundaries. A record points into the -assign file, which it makes durable
// first, so -checkpoint needs -assign; a CLUGP-family run also writes its
// frozen pass-3 tables once to run.cpk.base. -resume loads the newest
// intact record, truncates the -assign file to its watermark, and streams
// from the start: the durable prefix is read back (and checked against the
// stream) to rebuild the algorithm's and the -result builder's state, and
// the run continues from the record's offset. The resumed run's assignment,
// quality and -result are bit-identical to an uninterrupted one's. A
// corrupt record is detected by its CRC and skipped in favor of the
// previous one, never resumed from.
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
// the algorithm's O(|V|) state, not O(|E|). BFS/DFS/Random orders need the
// graph in memory to reorder it; natural order is exactly the crawl order
// the paper grants CLUGP and Mint, so the streaming mode covers the paper's
// headline configuration.
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
		trace   = flag.Bool("trace", false, "print CLUGP per-pass diagnostics and peak heap")
		streamF = flag.Bool("stream", false, "out-of-core mode: partition a .cgr file without loading it")
		workers = flag.Int("workers", 1, "decode workers for -stream (>1 enables the parallel hot pass; results are identical for any count)")
		cpuprof = flag.String("cpuprofile", "", "write a pprof CPU profile to this file")
		memprof = flag.String("memprofile", "", "write a pprof heap profile to this file on exit")
		recomp  = flag.String("recompress", "", "write the loaded graph back out compressed (CGR3) to this file, then exit")
		verifyF = flag.Bool("verify", false, "checksum-scan the -in file before using it")
		ckPath  = flag.String("checkpoint", "", "write crash-recovery checkpoints to this file during -stream (the previous one rotates to .prev)")
		ckEvery = flag.Int("checkpoint-every", 0, "checkpoint cadence in edges (default: ~1/16 of the stream)")
		resumeF = flag.Bool("resume", false, "resume an interrupted -stream run from -checkpoint (falls back to .prev if the newest is corrupt)")
		retryF  = flag.Int("retry", 0, "survive transient read faults: attempt each stream position up to N times (0 = no retry wrapper)")
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

	if (*ckPath != "" || *resumeF) && !*streamF {
		fail(fmt.Errorf("-checkpoint/-resume need -stream (checkpoints point into the out-of-core pass's durable output)"))
	}
	if *resumeF && *ckPath == "" {
		fail(fmt.Errorf("-resume needs -checkpoint FILE to resume from"))
	}
	if *ckPath != "" && *out == "" {
		fail(fmt.Errorf("-checkpoint needs -assign FILE: a checkpoint points into the durable assignment, which a resume replays"))
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

	// Heap watermarking exists for the -trace report only; sampling costs
	// periodic ReadMemStats pauses, so untraced runs skip it entirely (a
	// nil watermark's watch is a no-op).
	var heap *heapWatermark
	if *trace {
		heap = newHeapWatermark()
	}

	p, err := buildPartitioner(*algo, *seed, *tau, *weight, *batch, *thr)
	if err != nil {
		fail(err)
	}

	var res *repro.PartitionResult
	if *streamF {
		res, err = runStreaming(p, *in, streamOpts{
			k:          *k,
			out:        *out,
			resultPath: *resultF,
			workers:    *workers,
			ckPath:     *ckPath,
			ckEvery:    *ckEvery,
			resume:     *resumeF,
			retry:      *retryF,
		}, heap)
	} else {
		res, err = runInMemory(p, *in, *preset, *scale, *k, *seed, *out, *resultF, heap)
	}
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
		if c, ok := p.(*repro.CLUGP); ok && c.LastTrace != nil {
			t := c.LastTrace
			fmt.Printf("clusters:           %d (intra fraction %.3f)\n", t.NumClusters, t.IntraFraction)
			fmt.Printf("splits/migrations:  %d / %d\n", t.Splits, t.Migrations)
			fmt.Printf("game:               %d rounds, %d moves, %d batches (healed %.3f)\n",
				t.GameRounds, t.GameMoves, t.GameBatches, t.HealedFraction)
			fmt.Printf("overflow reroutes:  %d\n", t.Overflowed)
		}
		if *streamF {
			pl := res.Pipeline
			fmt.Printf("pipeline:           %d decode workers\n", pl.DecodeWorkers)
			if pl.SerialFallback != "" {
				fmt.Printf("serial fallback:    %s\n", pl.SerialFallback)
			}
			if cks := pl.Checkpoints; cks.Enabled || cks.Resumed {
				fmt.Printf("checkpoints:        %s\n", cks)
			}
			if *retryF > 0 || pl.RetryAttempts > 0 {
				fmt.Printf("stream retries:     %d attempt(s) fired\n", pl.RetryAttempts)
			}
		}
		// The paper's Figure 6 claim is about partitioner memory; report what
		// the process actually held so the bounded-memory mode is observable.
		peak, live, total := heap.report()
		fmt.Printf("peak heap:          %.2f MB (live after GC %.2f MB, %.2f MB allocated in total)\n",
			float64(peak)/(1<<20), float64(live)/(1<<20), float64(total)/(1<<20))
	}

	if *out != "" {
		fmt.Printf("assignment written: %s\n", *out)
	}
	if *resultF != "" {
		fmt.Printf("result written:     %s (serve it: partsrv -result %s)\n", *resultF, *resultF)
	}
}

// buildPartitioner mirrors the historical flag behaviour: CLUGP knobs apply
// only when the algorithm is CLUGP, everything else goes through the
// registry.
func buildPartitioner(algo string, seed uint64, tau, weight float64, batch, thr int) (repro.Partitioner, error) {
	if algo == "CLUGP" && (tau != 0 || weight != 0 || batch != 0 || thr != 0) {
		return &repro.CLUGP{Tau: tau, RelWeight: weight, BatchSize: batch, Threads: thr, Seed: seed}, nil
	}
	return repro.NewPartitioner(algo, seed)
}

// runInMemory is the classic path: load (or generate) the whole graph, then
// partition it under the algorithm's preferred order.
func runInMemory(p repro.Partitioner, in, preset string, scale float64, k int, seed uint64, out, resultPath string, heap *heapWatermark) (*repro.PartitionResult, error) {
	g, err := load(in, preset, scale)
	if err != nil {
		return nil, err
	}
	fmt.Printf("graph: %d vertices, %d edges\n", g.NumVertices, g.NumEdges())
	stop := heap.watch()
	res, err := repro.RunPartitioner(p, g, k, seed)
	stop()
	if err != nil {
		return nil, err
	}
	if out != "" {
		if err := writeAssign(out, res); err != nil {
			return nil, err
		}
	}
	if resultPath != "" {
		saved, err := repro.SavedResultFromRun(res)
		if err != nil {
			return nil, err
		}
		if err := writeResult(resultPath, saved); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// streamOpts bundles the -stream run configuration.
type streamOpts struct {
	k          int
	out        string
	resultPath string
	workers    int
	ckPath     string
	ckEvery    int
	resume     bool
	retry      int
}

// runStreaming is the out-of-core path: the .cgr file is the stream; the
// assignment is emitted as it is produced and never materialized. With
// workers > 1 decode and quality accounting run on worker fleets; the
// emitted assignment and quality are identical to the serial pass either way.
//
// With checkpointing the -assign file is written as a plain persistent file
// instead of an atomic temp+rename: the records point into it, and a resume
// truncates the interrupted run's output back to a record's watermark and
// replays what is left, which a temp file that died with the process cannot
// offer.
func runStreaming(p repro.Partitioner, in string, o streamOpts, heap *heapWatermark) (*repro.PartitionResult, error) {
	if in == "" {
		return nil, fmt.Errorf("-stream needs -in FILE.cgr")
	}
	k, out, resultPath := o.k, o.out, o.resultPath
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

	// -result chains a serve builder onto the emit callback: the serving
	// tables (replica bitsets + sizes) accumulate as assignments stream
	// past, so saving a result costs O(|V|*k/64) extra state, never the
	// O(|E|) assignment the streaming mode exists to avoid. A resume feeds
	// it the replayed prefix first.
	var builder *repro.ServeBuilder
	if resultPath != "" {
		builder, err = repro.NewServeBuilder(src.NumVertices(), k)
		if err != nil {
			return nil, err
		}
	}

	var w *bufio.Writer
	var aw *repro.AtomicWriter
	var pf *os.File
	var ck *repro.CheckpointOptions
	if o.ckPath != "" {
		ck = &repro.CheckpointOptions{Path: o.ckPath, EveryEdges: o.ckEvery}
		flags := os.O_RDWR | os.O_CREATE
		if !o.resume {
			flags |= os.O_TRUNC
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
			fmt.Printf("resuming: %s from offset %d/%d edges (batch %d, %s)\n",
				c.Algorithm, c.Offset, c.NumEdges, c.Batch, from)
			// Drop everything past the watermark: those edges were emitted
			// by the interrupted run after its last record, and will be
			// re-emitted.
			mark = c.EmitMark
			if err := pf.Truncate(mark); err != nil {
				return nil, err
			}
			if _, err := pf.Seek(mark, io.SeekStart); err != nil {
				return nil, err
			}
			rf, err := os.Open(out)
			if err != nil {
				return nil, err
			}
			defer rf.Close()
			ck.Resume = &repro.CheckpointResume{Record: c, Prefix: &assignPrefix{
				r:       bufio.NewReaderSize(io.LimitReader(rf, mark), 1<<16),
				builder: builder,
			}}
		}
		cw := &countingWriter{w: pf, n: mark}
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
		if builder != nil {
			if err := builder.Observe(edges, assign); err != nil {
				return err
			}
		}
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
	stop := heap.watch()
	res, err := repro.RunOutOfCoreOpts(p, source, k, emit, repro.OutOfCoreOptions{
		Workers:    o.workers,
		Checkpoint: ck,
	})
	stop()
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
			if err := pf.Sync(); err != nil {
				return nil, err
			}
			if err := pf.Close(); err != nil {
				return nil, err
			}
		}
	}
	if builder != nil {
		if err := writeResult(resultPath, builder.Result(res.Algorithm, res.Order.String())); err != nil {
			return nil, err
		}
	}
	if ck != nil {
		// The run completed, so its checkpoints are obsolete; a later
		// -resume against them would truncate the finished output.
		for _, suffix := range []string{"", repro.CheckpointPrevSuffix, repro.CheckpointBaseSuffix} {
			os.Remove(o.ckPath + suffix)
		}
	}
	return res, nil
}

// assignPrefix reads the durable prefix of an interrupted run back from its
// -assign file, checking each "src dst partition" line against the edge
// the stream holds at that position, and feeds the -result builder (when
// there is one) the replayed assignments.
type assignPrefix struct {
	r       *bufio.Reader
	builder *repro.ServeBuilder
	line    int
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
	if a.builder != nil {
		return a.builder.Observe(edges, assign)
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

// writeResult saves a serveable partition result (.cpr) atomically.
func writeResult(path string, saved *repro.SavedResult) error {
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

func load(in, preset string, scale float64) (*repro.Graph, error) {
	if preset != "" {
		for _, d := range repro.Datasets() {
			if d.Name == preset {
				return d.Build(scale), nil
			}
		}
		return nil, fmt.Errorf("unknown preset %q", preset)
	}
	if in == "" {
		return nil, fmt.Errorf("need -in FILE or -preset NAME")
	}
	f, err := os.Open(in)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	// Auto-detect the binary format by its magic; fall back to text.
	br := bufio.NewReaderSize(f, 1<<16)
	head, err := br.Peek(4)
	if err == nil && repro.SniffCompressed(head) {
		return repro.ReadCompressed(br)
	}
	return repro.ReadEdgeList(br)
}

// recompress loads a graph (text, CGR3 or a preset) and writes it out as
// CGR3. The output is written atomically, so an existing file at out is
// never torn.
func recompress(in, preset string, scale float64, out string) error {
	g, err := load(in, preset, scale)
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

// heapWatermark tracks the largest heap the process has held. A background
// sampler (watch) reads HeapAlloc on a 10ms tick for the duration of a
// run, so transients that live between the run's own observation points -
// CLUGP's pass-2 crossing-pair array, game tables, Mint's batch tables -
// are seen at (close to) their peak rather than only before and after.
// The final report also forces a GC so "live" is actual reachable memory.
type heapWatermark struct {
	peak uint64
}

func newHeapWatermark() *heapWatermark {
	h := &heapWatermark{}
	h.sample()
	return h
}

func (h *heapWatermark) sample() {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > h.peak {
		h.peak = m.HeapAlloc
	}
}

// watch samples the heap on a ticker until the returned stop function is
// called. Only the sampler goroutine touches peak while watching; stop
// joins it before the caller reads the result. A nil watermark (untraced
// run) watches nothing.
func (h *heapWatermark) watch() (stop func()) {
	if h == nil {
		return func() {}
	}
	done := make(chan struct{})
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return func() {
		close(done)
		<-joined
		// Final sample so runs shorter than one tick still observe the
		// heap they ended with (freed transients included, pre-GC).
		h.sample()
	}
}

func (h *heapWatermark) report() (peak, live, total uint64) {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	if m.HeapAlloc > h.peak {
		h.peak = m.HeapAlloc
	}
	return h.peak, m.HeapAlloc, m.TotalAlloc
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
