package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/game"
	"repro/internal/graph"
	"repro/internal/partition"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/stream"
)

// layer is one per-layer metric: what it is, and which end-to-end metric
// it should move on which workloads. layers.json is the registry a traced
// run must report in full.
type layer struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	How    string   `json:"how"`
	Moves  string   `json:"moves"`
	Heavy  []string `json:"heavy"`
	Light  []string `json:"light"`
}

//go:embed layers.json
var layersJSON []byte

var layers = func() []layer {
	var ls []layer
	if err := json.Unmarshal(layersJSON, &ls); err != nil {
		panic(fmt.Sprintf("layers.json: %v", err))
	}
	return ls
}()

// Tolerances of the ledger checks. A traced pass's own self times must sum
// to its span within ledgerTolerance. Figures taken from different passes
// - the direct CLUGP calls against the traced pass, the traced pass against
// the untraced one - differ by the host's pass-to-pass noise as well,
// measured at up to 10% on a 2-CPU host, so they get crossTolerance.
const (
	ledgerTolerance = 0.02
	crossTolerance  = 0.20
)

// span is one timed call across a layer boundary. Spans stay in memory and
// are written out once, with the result file, when the run ends.
type span struct {
	Name   string `json:"name"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Run    int32  `json:"run"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer records spans on the one goroutine that drives the pipeline. A
// span begun while another is open is that span's child.
type tracer struct {
	epoch time.Time
	run   int32
	cur   int32
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), cur: -1} }

// newRun starts a fresh span tree.
func (t *tracer) newRun() int32 {
	t.run++
	t.cur = -1
	return t.run
}

func (t *tracer) begin(name string) int32 {
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: t.cur, Run: t.run, Start: int64(time.Since(t.epoch))})
	t.cur = id
	return id
}

func (t *tracer) end(id int32) {
	t.spans[id].End = int64(time.Since(t.epoch))
	t.cur = t.spans[id].Parent
}

func (t *tracer) dur(id int32) time.Duration {
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// selfByName sums, per span name, the self time of run's spans: each
// span's duration minus its children's.
func (t *tracer) selfByName(run int32) map[string]time.Duration {
	self := map[string]time.Duration{}
	first := -1
	for i := range t.spans {
		if t.spans[i].Run == run {
			first = i
			break
		}
	}
	if first < 0 {
		return self
	}
	for i := first; i < len(t.spans) && t.spans[i].Run == run; i++ {
		s := t.spans[i]
		d := time.Duration(s.End - s.Start)
		self[s.Name] += d
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= d
		}
	}
	return self
}

// passTrace traces one RunOutOfCoreOpts pass from outside: the source's
// NextBlock and Reset, the emit callback and EmitMark. For CLUGP each
// Reset the partitioner makes marks a pass boundary: cluster.Run streams
// once, cluster.BuildGraph twice and the transformation once.
type passTrace struct {
	t      *tracer
	clugp  bool
	run    int32
	root   int32
	pass   int32
	resets int
	blocks int
}

func (t *tracer) newPass(algo string) *passTrace {
	return &passTrace{t: t, clugp: algo == "CLUGP", pass: -1}
}

func (pt *passTrace) begin() {
	pt.run = pt.t.newRun()
	pt.root = pt.t.begin("partition.run")
}

func (pt *passTrace) finish() {
	if pt.pass >= 0 {
		pt.t.end(pt.pass)
	}
	pt.t.end(pt.root)
}

func (pt *passTrace) onReset() {
	pt.resets++
	if !pt.clugp {
		return
	}
	var next string
	switch pt.resets {
	case 1:
		next = "clugp.pass1"
	case 2:
		next = "clugp.pass2"
	case 4:
		next = "clugp.pass3"
	default:
		return
	}
	if pt.pass >= 0 {
		pt.t.end(pt.pass)
	}
	pt.pass = pt.t.begin(next)
}

func (pt *passTrace) wrapMark(mark func() (int64, error)) func() (int64, error) {
	return func() (int64, error) {
		id := pt.t.begin("store.emit_mark")
		n, err := mark()
		pt.t.end(id)
		return n, err
	}
}

func (pt *passTrace) source(src stream.Source) stream.Source {
	return &timedSource{Source: src, t: pt.t, onReset: pt.onReset, blocks: &pt.blocks}
}

// timedSource is a stream.Source that records a store.decode span around
// every NextBlock and Reset of the source it wraps.
type timedSource struct {
	stream.Source
	t       *tracer
	onReset func()
	blocks  *int
}

func (s *timedSource) Reset() error {
	if s.onReset != nil {
		s.onReset()
	}
	id := s.t.begin("store.decode")
	err := s.Source.Reset()
	s.t.end(id)
	return err
}

func (s *timedSource) NextBlock() ([]graph.Edge, error) {
	id := s.t.begin("store.decode")
	blk, err := s.Source.NextBlock()
	s.t.end(id)
	if len(blk) > 0 && s.blocks != nil {
		*s.blocks++
	}
	return blk, err
}

// samples collects per-pass values of the per-layer metrics.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) last(name string) float64 { return s[name][len(s[name])-1] }

// ledger names the self times that make up a traced pass.
var ledger = []string{"store.decode_s", "serve.observe_s", "partition.emit_s", "store.emit_mark_s",
	"cluster.run_s", "cluster.build_s", "game.solve_s", "partition.transform_s", "partition.self_s"}

// tracedPass runs one traced pass and records its self times.
func (b *bench) tracedPass(tr *tracer, o passOpts, into samples) (*passOut, error) {
	pt := tr.newPass(b.w.algo)
	o.tr = pt
	out, err := b.pass(o)
	if err != nil {
		return nil, err
	}
	wantResets := 1
	if pt.clugp {
		wantResets = 4
	}
	if pt.resets != wantResets {
		return nil, fmt.Errorf("traced %s pass reset its source %d times, want %d", b.w.algo, pt.resets, wantResets)
	}
	self := tr.selfByName(pt.run)
	if into == nil {
		return out, nil
	}
	into.add("span", tr.dur(pt.root).Seconds())
	into.add("store.decode_s", self["store.decode"].Seconds())
	into.add("serve.observe_s", self["serve.observe"].Seconds())
	into.add("partition.emit_s", self["partition.emit"].Seconds())
	into.add("store.emit_mark_s", self["store.emit_mark"].Seconds())
	into.add("partition.transform_s", self["clugp.pass3"].Seconds())
	into.add("partition.self_s", self["partition.run"].Seconds())
	into.add("store.blocks", float64(pt.blocks))
	var sum time.Duration
	for _, name := range []string{"store.decode", "serve.observe", "partition.emit", "store.emit_mark",
		"clugp.pass1", "clugp.pass2", "clugp.pass3", "partition.run"} {
		sum += self[name]
	}
	if span := tr.dur(pt.root); math.Abs(sum.Seconds()/span.Seconds()-1) > ledgerTolerance {
		return nil, fmt.Errorf("traced pass self times sum to %v of a %v span", sum, span)
	}
	if pt.clugp {
		// The pass spans and CLUGP's own LastTrace time the same intervals
		// from either side of the call; they must agree.
		lt := out.clugp
		for _, c := range []struct {
			name     string
			traced   time.Duration
			reported time.Duration
		}{
			{"pass 1 (clustering)", spanDur(tr, pt.run, "clugp.pass1"), lt.ClusterTime},
			{"pass 2 (build + game)", spanDur(tr, pt.run, "clugp.pass2"), lt.BuildTime + lt.GameTime},
			{"pass 3 (transform)", spanDur(tr, pt.run, "clugp.pass3"), lt.TransformTime},
		} {
			if diff := math.Abs((c.traced - c.reported).Seconds()); diff > 0.02+0.05*c.reported.Seconds() {
				return nil, fmt.Errorf("traced CLUGP %s took %v, CLUGP.LastTrace says %v", c.name, c.traced, c.reported)
			}
		}
	}
	return out, nil
}

func spanDur(tr *tracer, run int32, name string) time.Duration {
	for _, s := range tr.spans {
		if s.Run == run && s.Name == name {
			return time.Duration(s.End - s.Start)
		}
	}
	return 0
}

// directCLUGP calls CLUGP's first two passes directly, with CLUGP's
// defaults, over a timed source, and checks they did the same work as the
// traced pass whose LastTrace is want.
func (b *bench) directCLUGP(tr *tracer, want *partition.Trace, into samples) error {
	run := tr.newRun()
	src := &timedSource{Source: b.src, t: tr}
	vmax := max(int64(0.2*float64(b.ne)/float64(b.w.k)), 2)

	id := tr.begin("cluster.run")
	cres, err := cluster.Run(src, cluster.Config{Vmax: vmax})
	if err == nil {
		cres.Compact()
	}
	tr.end(id)
	if err != nil {
		return err
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id = tr.begin("cluster.build")
	cg, err := cluster.BuildGraph(src, cres)
	tr.end(id)
	if err != nil {
		return err
	}
	runtime.ReadMemStats(&m1)

	id = tr.begin("game.solve")
	asg, err := game.Solve(cg, game.Config{K: b.w.k, BatchSize: 6400, Seed: b.seeds.part})
	tr.end(id)
	if err != nil {
		return err
	}

	intra := float64(cg.TotalIntra) / float64(cg.TotalIntra+cg.TotalInter)
	if cres.NumClusters != want.NumClusters || asg.Rounds != want.GameRounds || asg.Moves != want.GameMoves || intra != want.IntraFraction {
		return fmt.Errorf("direct CLUGP passes (%d clusters, %d rounds, %d moves, intra %v) differ from the pipeline's (%d, %d, %d, %v)",
			cres.NumClusters, asg.Rounds, asg.Moves, intra, want.NumClusters, want.GameRounds, want.GameMoves, want.IntraFraction)
	}
	self := tr.selfByName(run)
	into.add("cluster.run_s", self["cluster.run"].Seconds())
	into.add("cluster.build_s", self["cluster.build"].Seconds())
	into.add("game.solve_s", self["game.solve"].Seconds())
	into.add("cluster.build_alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/(1<<20))
	into.add("cluster.clusters", float64(cres.NumClusters))
	into.add("cluster.intra_fraction", intra)
	into.add("game.rounds", float64(asg.Rounds))
	into.add("game.moves", float64(asg.Moves))
	return nil
}

// runTraced measures the per-layer metrics. Untraced and traced passes
// alternate, so trace.overhead compares passes made under the same host
// conditions.
func (b *bench) runTraced(rep *report, tr *tracer) error {
	var gens, writes []float64
	for i := 0; i < setups; i++ {
		g, w, err := b.generate()
		if err != nil {
			return err
		}
		gens = append(gens, g.Seconds())
		writes = append(writes, w.Seconds())
	}
	rep.set("gen.graph_s", median(gens), "s")
	rep.set("store.write_s", median(writes), "s")
	if err := b.open(); err != nil {
		return err
	}
	rep.set("store.bytes_per_edge", float64(b.src.SizeBytes())/float64(b.ne), "B/edge")
	assign := make([]int32, b.ne)
	if _, err := b.pass(passOpts{sink: b.w.durable, capture: assign}); err != nil {
		return err
	}

	// Each cycle is an untraced pass, the traced pass right after it, the
	// same traced pass without checkpoints where the workload checkpoints,
	// and CLUGP's first two passes called directly. The ledger compares
	// passes within a cycle, so slow drift of the host cancels.
	s := samples{}
	var last *passOut
	start := time.Now()
	for n := 1; ; n++ {
		c0 := time.Now()
		u, err := b.pass(passOpts{sink: b.w.durable, checkpoint: b.w.durable})
		if err != nil {
			return err
		}
		if last, err = b.tracedPass(tr, passOpts{sink: b.w.durable, checkpoint: b.w.durable}, s); err != nil {
			return err
		}
		if b.w.durable {
			plain, err := b.tracedPass(tr, passOpts{sink: true}, nil)
			if err != nil {
				return err
			}
			s.add("partition.checkpoint_overhead_s", (last.wall - plain.wall).Seconds())
		} else {
			s.add("partition.checkpoint_overhead_s", 0)
		}
		if last.clugp != nil {
			if err := b.directCLUGP(tr, last.clugp, s); err != nil {
				return err
			}
		} else {
			for _, name := range []string{"cluster.run_s", "cluster.build_s", "game.solve_s", "cluster.build_alloc_mb",
				"cluster.clusters", "cluster.intra_fraction", "game.rounds", "game.moves"} {
				s.add(name, 0)
			}
		}
		span := s.last("span")
		sum := 0.0
		for _, name := range ledger {
			sum += s.last(name)
		}
		s.add("overhead", span/u.wall.Seconds())
		s.add("coverage", sum/span)
		s.add("sum/untraced", sum/u.wall.Seconds())
		if n >= minCycles && time.Since(start)+time.Since(c0) > b.budget*6/10 {
			break
		}
	}
	for _, l := range layers {
		if v, ok := s[l.Name]; ok {
			rep.set(l.Name, median(v), l.Unit)
		}
	}
	rep.set("partition.state_mb", float64(last.res.StateBytes)/(1<<20), "MB")
	var overflow int64
	if last.clugp != nil {
		overflow = last.clugp.Overflowed
	}
	rep.set("partition.overflow_edges", float64(overflow), "count")
	ck := last.res.Pipeline.Checkpoints
	rep.set("store.checkpoints", float64(ck.Written), "count")
	rep.set("store.checkpoint_mb", float64(ck.Bytes)/(1<<20), "MB")

	// The cross ledger: the self times of a traced pass, with CLUGP's first
	// two passes taken from the direct calls, must add up to the traced
	// span and to the untraced pass of the same cycle.
	coverage, sumUntraced := median(s["coverage"]), median(s["sum/untraced"])
	rep.set("trace.overhead", median(s["overhead"]), "ratio")
	rep.set("trace.coverage", coverage, "ratio")
	b.note("trace.coverage", "(per cycle: %s; self-time sum over untraced pass: %s)", fmtList(s["coverage"]), fmtList(s["sum/untraced"]))
	if math.Abs(coverage-1) > crossTolerance || math.Abs(sumUntraced-1) > crossTolerance {
		return fmt.Errorf("self times sum to %.3f of the traced span and %.3f of the untraced pass: off 1 by more than %.0f%%",
			coverage, sumUntraced, 100*crossTolerance)
	}

	busy, q, err := b.evaluate(assign)
	if err != nil {
		return err
	}
	if rq := b.refQuality; q.ReplicationFactor != rq.ReplicationFactor || q.RelativeBalance != rq.RelativeBalance {
		return fmt.Errorf("separate metrics.Evaluator pass says RF %v balance %v, the pipeline %v %v",
			q.ReplicationFactor, q.RelativeBalance, rq.ReplicationFactor, rq.RelativeBalance)
	}
	rep.set("metrics.observe_s", busy.Seconds(), "s")
	return b.serveTraced(rep, last.result)
}

// serveTraced measures the save, load, snapshot and query layers, and a
// short lookup phase for serve.handler_share.
func (b *bench) serveTraced(rep *report, saved *store.Result) error {
	var writes, reads, snaps []float64
	var snap *serve.Snapshot
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if err := b.saveResult(saved); err != nil {
			return err
		}
		t1 := time.Now()
		r, err := b.readResult()
		if err != nil {
			return err
		}
		t2 := time.Now()
		if snap, err = serve.NewSnapshot(r, serve.Options{}); err != nil {
			return err
		}
		t3 := time.Now()
		writes = append(writes, t1.Sub(t0).Seconds())
		reads = append(reads, t2.Sub(t1).Seconds())
		snaps = append(snaps, t3.Sub(t2).Seconds())
	}
	if err := b.checkSaved(saved); err != nil {
		return err
	}
	rep.set("store.result_write_s", median(writes), "s")
	rep.set("store.result_read_s", median(reads), "s")
	rep.set("serve.snapshot_s", median(snaps), "s")
	mb, err := fileMB(b.resultPath())
	if err != nil {
		return err
	}
	rep.set("store.result_mb", mb, "MB")

	ns, allocs, err := snapshotQueries(snap, b.seeds.keys, 500*time.Millisecond)
	if err != nil {
		return err
	}
	if allocs != 0 {
		return fmt.Errorf("direct snapshot queries allocated %d times, want 0", allocs)
	}
	rep.set("serve.query_ns", ns, "ns")
	rep.set("serve.query_allocs", float64(allocs), "count")

	s, err := b.bootServer()
	if err != nil {
		return err
	}
	defer s.stop()
	handler, err := handlerCalls(s.srv, b.seeds.keys, 500*time.Millisecond)
	if err != nil {
		return err
	}
	cl, err := dial(s.addr)
	if err != nil {
		return err
	}
	defer cl.close()
	st := &lookupStats{}
	if err := onOneP(func() error { return lookups(cl, s.srv, b.seeds.keys, max(2*time.Second, b.budget/8), st) }); err != nil {
		return err
	}
	rep.attempted += st.attempted
	rep.failed += st.failed
	if st.failed > 0 || len(st.windows) == 0 {
		return fmt.Errorf("%d of %d lookups failed", st.failed, st.attempted)
	}
	p50 := st.median(func(w window) float64 { return w.p50us })
	rep.set("serve.handler_us", handler, "us")
	rep.set("serve.handler_share", handler/p50, "ratio")
	b.note("serve.handler_share", "(of lookup_p50_us %.2f, median of %d windows)", p50, len(st.windows))
	rep.set("host.calib_s", median(b.calib), "s")
	return nil
}

func fileMB(path string) (float64, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return 0, err
	}
	return float64(fi.Size()) / (1 << 20), nil
}
