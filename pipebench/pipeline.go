package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

// setups is how many times a run generates, writes, opens and warms its
// input; setup_s is their median.
const setups = 3

// bench is one run of one workload.
type bench struct {
	w      *workload
	seeds  seeds
	dir    string
	budget time.Duration

	src    *store.MmapSource
	nv, ne int

	// refDigest and refQuality are the first pass's outcome; every later
	// pass must match them.
	refDigest  uint64
	refQuality *metrics.Quality
	// calib holds host.calib_s, timed before each pass.
	calib []float64
	// notes are printed after a metric's value on the report lines.
	notes map[string]string
}

func (b *bench) graphPath() string  { return filepath.Join(b.dir, "graph.cgr") }
func (b *bench) resultPath() string { return filepath.Join(b.dir, "result.cpr") }

func (b *bench) close() {
	if b.src != nil {
		b.src.Close()
		b.src = nil
	}
}

func (b *bench) note(metric, format string, args ...any) {
	if b.notes == nil {
		b.notes = map[string]string{}
	}
	b.notes[metric] = "  " + fmt.Sprintf(format, args...)
}

// generate builds the workload's graph from the seed and writes it as
// CGR3, as genweb -binary does.
func (b *bench) generate() (genTime, writeTime time.Duration, err error) {
	t0 := time.Now()
	cfg := b.w.graph
	cfg.Seed = b.seeds.graph
	g := gen.Web(cfg)
	t1 := time.Now()
	aw, err := store.NewAtomicWriter(b.graphPath())
	if err != nil {
		return 0, 0, err
	}
	defer aw.Abort()
	if err := store.WriteFormat(aw, g, store.FormatCGR3); err != nil {
		return 0, 0, fmt.Errorf("write graph: %w", err)
	}
	if err := aw.Commit(); err != nil {
		return 0, 0, fmt.Errorf("write graph: %w", err)
	}
	return t1.Sub(t0), time.Since(t1), nil
}

// open maps the graph file, replacing any source opened before.
func (b *bench) open() error {
	b.close()
	src, err := store.OpenMmap(b.graphPath())
	if err != nil {
		return fmt.Errorf("open graph: %w", err)
	}
	if src.Format() != store.FormatCGR3 {
		src.Close()
		return fmt.Errorf("graph file is %v, want CGR3", src.Format())
	}
	b.src, b.nv, b.ne = src, src.NumVertices(), src.Len()
	return nil
}

// setup generates, writes and opens the input and runs one untimed warm
// pass, returning the pass and the time set-up took.
func (b *bench) setup() (*passOut, time.Duration, error) {
	t0 := time.Now()
	if _, _, err := b.generate(); err != nil {
		return nil, 0, err
	}
	if err := b.open(); err != nil {
		return nil, 0, err
	}
	// The warm pass never checkpoints: in the durable workload its digest
	// is the reference that checkpointed passes must reproduce.
	out, err := b.pass(passOpts{sink: b.w.durable})
	if err != nil {
		return nil, 0, err
	}
	return out, time.Since(t0), nil
}

// passOpts selects how one RunOutOfCoreOpts pass runs.
type passOpts struct {
	// sink writes the assignment to a file, synced when the pass ends.
	sink bool
	// checkpoint adds checkpoints at the default cadence, each making the
	// assignment file durable through EmitMark first. It needs sink.
	checkpoint bool
	// tr, when non-nil, traces the pass: the source and the emit and
	// EmitMark callbacks are wrapped in spans.
	tr *passTrace
	// capture, when non-nil, receives the per-edge assignment.
	capture []int32
}

// passOut is what one pass produced.
type passOut struct {
	wall   time.Duration
	res    *partition.Result
	clugp  *partition.Trace
	result *store.Result
	digest uint64
	peakMB float64
}

// pass runs the workload's partitioner over the mapped graph once, with
// the emitted assignment accumulated into a serve.Builder, and checks the
// outcome against the first pass.
func (b *bench) pass(o passOpts) (*passOut, error) {
	p, err := partition.New(b.w.algo, b.seeds.part)
	if err != nil {
		return nil, err
	}
	builder, err := serve.NewBuilder(b.nv, b.w.k)
	if err != nil {
		return nil, err
	}
	var src stream.Source = b.src
	if o.tr != nil {
		src = o.tr.source(b.src)
	}
	var opts partition.OutOfCoreOptions
	var sink *assignFile
	if o.sink {
		if sink, err = createAssignFile(filepath.Join(b.dir, "assign.bin")); err != nil {
			return nil, err
		}
		defer sink.f.Close()
	}
	if o.checkpoint {
		ckpt := filepath.Join(b.dir, "run.ckpt")
		for _, f := range []string{ckpt, ckpt + ".prev"} {
			if err := os.Remove(f); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, err
			}
		}
		mark := sink.mark
		if o.tr != nil {
			mark = o.tr.wrapMark(mark)
		}
		opts.Checkpoint = &partition.CheckpointOptions{Path: ckpt, EmitMark: mark}
	}

	var digest uint64 = 14695981039346656037
	var off int
	emit := func(edges []graph.Edge, assign []int32) error {
		var id int32
		if o.tr != nil {
			id = o.tr.t.begin("partition.emit")
			ob := o.tr.t.begin("serve.observe")
			err := builder.Observe(edges, assign)
			o.tr.t.end(ob)
			if err != nil {
				return err
			}
		} else if err := builder.Observe(edges, assign); err != nil {
			return err
		}
		for i, e := range edges {
			digest = (digest ^ (uint64(e.Src)<<32 | uint64(e.Dst))) * 1099511628211
			digest = (digest ^ uint64(uint32(assign[i]))) * 0x9e3779b97f4a7c15
		}
		if o.capture != nil {
			copy(o.capture[off:], assign)
		}
		off += len(edges)
		if sink != nil {
			if err := sink.write(assign); err != nil {
				return err
			}
		}
		if o.tr != nil {
			o.tr.t.end(id)
		}
		return nil
	}

	b.calib = append(b.calib, calibrate().Seconds())
	// Start every pass from the same settled heap, and reset the kernel's
	// peak-RSS mark, so the peak belongs to this pass alone.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	if o.tr != nil {
		o.tr.begin()
	}
	t0 := time.Now()
	res, err := partition.RunOutOfCoreOpts(p, src, b.w.k, emit, opts)
	wall := time.Since(t0)
	if o.tr != nil {
		o.tr.finish()
	}
	if err != nil {
		return nil, err
	}
	peak, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	out := &passOut{wall: wall, res: res, digest: digest, peakMB: peak}
	if c, ok := p.(*partition.CLUGP); ok {
		out.clugp = c.LastTrace
	}
	if sink != nil {
		if err := sink.close(); err != nil {
			return nil, err
		}
		if want := int64(4 * b.ne); sink.n != want {
			return nil, fmt.Errorf("durable emit wrote %d bytes, want %d", sink.n, want)
		}
	}
	if off != b.ne {
		return nil, fmt.Errorf("pass emitted %d edges, want %d", off, b.ne)
	}
	out.result = builder.Result(res.Algorithm, res.Order.String())
	if err := b.check(out); err != nil {
		return nil, err
	}
	return out, nil
}

// check holds a pass to the correctness gate: quality equal to the value
// recomputed from the serve.Builder tables, and the same per-edge
// assignment and quality as the first pass of the run.
func (b *bench) check(out *passOut) error {
	q := out.res.Quality
	r := out.result
	var replicas int64
	var vertices, maxSize int64
	for v := 0; v < r.NumVertices; v++ {
		if c := r.Replicas.Count(graph.VertexID(v)); c > 0 {
			vertices++
			replicas += int64(c)
		}
	}
	for _, s := range r.Sizes {
		maxSize = max(maxSize, s)
	}
	rf := float64(replicas) / float64(vertices)
	bal := float64(r.K) * float64(maxSize) / float64(r.NumEdges)
	if rf != q.ReplicationFactor || bal != q.RelativeBalance {
		return fmt.Errorf("quality RF %v balance %v disagrees with the served tables (RF %v balance %v)",
			q.ReplicationFactor, q.RelativeBalance, rf, bal)
	}
	if b.refQuality == nil {
		b.refDigest, b.refQuality = out.digest, q
		return nil
	}
	if out.digest != b.refDigest {
		return fmt.Errorf("assignment digest %016x differs from the first pass's %016x", out.digest, b.refDigest)
	}
	if rq := b.refQuality; q.ReplicationFactor != rq.ReplicationFactor || q.RelativeBalance != rq.RelativeBalance {
		return fmt.Errorf("quality RF %v balance %v differs from the first pass's RF %v balance %v",
			q.ReplicationFactor, q.RelativeBalance, rq.ReplicationFactor, rq.RelativeBalance)
	}
	return nil
}

// assignFile is the durable emit target: each edge's partition as a
// little-endian int32, flushed and synced whenever a checkpoint asks.
type assignFile struct {
	f   *os.File
	w   *bufio.Writer
	n   int64
	buf []byte
}

func createAssignFile(path string) (*assignFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	return &assignFile{f: f, w: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (a *assignFile) write(assign []int32) error {
	a.buf = a.buf[:0]
	for _, p := range assign {
		a.buf = binary.LittleEndian.AppendUint32(a.buf, uint32(p))
	}
	n, err := a.w.Write(a.buf)
	a.n += int64(n)
	return err
}

// mark is the EmitMark callback: everything emitted so far is on disk.
func (a *assignFile) mark() (int64, error) {
	if err := a.w.Flush(); err != nil {
		return 0, err
	}
	if err := a.f.Sync(); err != nil {
		return 0, err
	}
	return a.n, nil
}

func (a *assignFile) close() error {
	if _, err := a.mark(); err != nil {
		return err
	}
	return a.f.Close()
}

// saveResult writes the pass's serving tables as a .cpr file, as clugp
// -result does.
func (b *bench) saveResult(r *store.Result) error {
	aw, err := store.NewAtomicWriter(b.resultPath())
	if err != nil {
		return err
	}
	defer aw.Abort()
	if err := store.WriteResult(aw, r); err != nil {
		return fmt.Errorf("save result: %w", err)
	}
	return aw.Commit()
}

// readResult is partsrv's loader up to the snapshot: open the .cpr file
// and decode it.
func (b *bench) readResult() (*store.Result, error) {
	f, err := os.Open(b.resultPath())
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return store.ReadResult(bufio.NewReaderSize(f, 1<<16))
}

// minCycles is the least number of cycles a run makes, however short its
// budget.
const minCycles = 3

// runEndToEnd measures the end-to-end metrics. After set-up it saves the
// warm pass's result and boots the server from the file, then repeats one
// cycle until the budget is spent: a timed pass, the reloads, and a chunk
// of lookups. Spreading passes and lookups over the whole run keeps a slow
// phase of the host from landing on one metric alone.
func (b *bench) runEndToEnd(rep *report) error {
	var setupTimes []float64
	var warm *passOut
	for i := 0; i < setups; i++ {
		out, total, err := b.setup()
		if err != nil {
			return err
		}
		warm = out
		setupTimes = append(setupTimes, total.Seconds())
	}
	rep.set("setup_s", median(setupTimes), "s")
	b.note("setup_s", "(median of %d: %s)", len(setupTimes), fmtList(setupTimes))
	q := warm.res.Quality
	rep.set("replication_factor", q.ReplicationFactor, "ratio")
	rep.set("relative_balance", q.RelativeBalance, "ratio")

	if err := b.saveResult(warm.result); err != nil {
		return err
	}
	if err := b.checkSaved(warm.result); err != nil {
		return err
	}
	s, err := b.bootServer()
	if err != nil {
		return err
	}
	defer s.stop()
	lc, err := dial(s.addr)
	if err != nil {
		return err
	}
	defer lc.close()
	rc, err := dial(s.addr)
	if err != nil {
		return err
	}
	defer rc.close()
	rl := &reloader{cl: rc, srv: s.srv}
	st := &lookupStats{}

	var walls, peaks []float64
	start := time.Now()
	for n := 1; ; n++ {
		c0 := time.Now()
		out, err := b.pass(passOpts{sink: b.w.durable, checkpoint: b.w.durable})
		if err != nil {
			return err
		}
		walls = append(walls, out.wall.Seconds())
		peaks = append(peaks, out.peakMB)
		chunk := func() error {
			// Collect the garbage of the pass and of the reloads before
			// it now, not in the middle of the lookups.
			runtime.GC()
			return lookups(lc, s.srv, b.seeds.keys, b.budget/8, st)
		}
		if b.w.reloadEvery > 0 {
			err = onOneP(func() error { return rl.reloadWhile(b.w.reloadEvery, chunk) })
		} else {
			for i := 0; i < reloadsPerCycle && err == nil; i++ {
				err = rl.reload()
			}
			if err == nil {
				err = onOneP(chunk)
			}
		}
		if err != nil {
			return err
		}
		// Stop when one more cycle like this one would overrun the budget.
		if n >= minCycles && time.Since(start)+time.Since(c0) > b.budget {
			break
		}
	}
	rep.set("partition_s", median(walls), "s")
	b.note("partition_s", "(median of %d passes: %s; host.calib_s %s)", len(walls), fmtList(walls), fmtList(b.calib))
	rep.set("peak_rss_mb", median(peaks), "MB")

	rep.attempted += st.attempted + rl.attempted
	rep.failed += st.failed + rl.failed
	if st.failed > 0 || rl.failed > 0 {
		return fmt.Errorf("%d of %d lookups and %d of %d reloads failed", st.failed, st.attempted, rl.failed, rl.attempted)
	}
	if len(rl.times) == 0 || len(st.windows) == 0 {
		return fmt.Errorf("no reload or no lookup window completed")
	}
	if want := uint64(1 + len(rl.times)); s.srv.Current().Epoch() != want {
		return fmt.Errorf("server at epoch %d after %d reloads, want %d", s.srv.Current().Epoch(), len(rl.times), want)
	}
	rep.set("reload_s", median(rl.times), "s")
	b.note("reload_s", "(median of %d reloads: %s)", len(rl.times), fmtList(rl.times))
	rep.set("lookups_per_s", st.rate(), "1/s")
	rep.set("lookup_p50_us", st.median(func(w window) float64 { return w.p50us }), "us")
	rep.set("lookup_p99_us", st.median(func(w window) float64 { return w.p99us }), "us")
	for _, m := range []string{"lookup_p50_us", "lookup_p99_us"} {
		b.note(m, "(median of %d windows of %v; %d lookups)", len(st.windows), lookupWindow, st.ok)
	}
	var rates []float64
	for _, w := range st.windows {
		rates = append(rates, w.rate/1000)
	}
	b.note("lookups_per_s", "(%d lookups in %.1f s; windows, k/s: %s)", st.ok, st.wall.Seconds(), fmtList(rates))
	rep.set("lookup_fail_ratio", float64(st.failed)/float64(st.attempted), "ratio")
	b.note("lookup_fail_ratio", "(%d of %d lookups failed)", st.failed, st.attempted)
	return nil
}

// checkSaved reads the saved .cpr back and checks it holds exactly the
// tables the pass built.
func (b *bench) checkSaved(want *store.Result) error {
	got, err := b.readResult()
	if err != nil {
		return err
	}
	if got.K != want.K || got.NumVertices != want.NumVertices || got.NumEdges != want.NumEdges || !slices.Equal(got.Sizes, want.Sizes) {
		return fmt.Errorf("saved result geometry %d/%d/%d differs from the built one", got.K, got.NumVertices, got.NumEdges)
	}
	for v := 0; v < want.NumVertices; v++ {
		for w := 0; w < want.Replicas.Words(); w++ {
			if got.Replicas.Word(graph.VertexID(v), w) != want.Replicas.Word(graph.VertexID(v), w) {
				return fmt.Errorf("saved replica set of vertex %d differs from the built one", v)
			}
		}
	}
	return nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 3, 64)
	}
	return strings.Join(parts, " ")
}

// resetPeakRSS resets the kernel's peak resident set mark (VmHWM) to the
// current resident set.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// peakRSSMB reads VmHWM in MB (2^20 bytes).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", l, err)
			}
			return float64(kb) / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// calibSink keeps calibrate's loop from being optimized away.
var calibSink uint64

// calibrate times a fixed, allocation-free integer kernel, so a slow host
// phase shows next to a slow number.
func calibrate() time.Duration {
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 1<<24; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	calibSink += x
	return time.Since(t0)
}

// evaluate runs a separate metrics.Evaluator pass over the stream and a
// captured assignment, timing Begin, Observe and Finish but not decode.
func (b *bench) evaluate(assign []int32) (time.Duration, *metrics.Quality, error) {
	var ev metrics.Evaluator
	t0 := time.Now()
	ev.Begin(b.nv, b.w.k)
	busy := time.Since(t0)
	err := stream.ForEach(b.src, func(off int, blk []graph.Edge) error {
		t := time.Now()
		err := ev.Observe(blk, assign[off:off+len(blk)])
		busy += time.Since(t)
		return err
	})
	if err != nil {
		return 0, nil, err
	}
	t1 := time.Now()
	q := ev.Finish()
	return busy + time.Since(t1), q, nil
}
