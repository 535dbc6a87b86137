package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/xrand"
)

// reloadsPerCycle is how many reloads a read-only workload times in each
// cycle, between its pass and its lookups.
const reloadsPerCycle = 4

// server is a serve.Server booted from the saved result with partsrv's
// loader, listening on loopback.
type server struct {
	srv  *serve.Server
	hs   *http.Server
	addr string
	done chan error
}

// bootServer loads the saved result the way partsrv -result does and
// starts serving it on 127.0.0.1.
func (b *bench) bootServer() (*server, error) {
	loader := func() (*serve.Snapshot, error) {
		r, err := b.readResult()
		if err != nil {
			return nil, err
		}
		return serve.NewSnapshot(r, serve.Options{})
	}
	snap, err := loader()
	if err != nil {
		return nil, fmt.Errorf("boot: %w", err)
	}
	srv := serve.NewServer(snap)
	srv.SetLoader(loader)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: srv, hs: &http.Server{Handler: srv.Handler()}, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.hs.Serve(ln) }()
	return s, nil
}

// stop closes the listener and every connection and waits for Serve to
// return.
func (s *server) stop() error {
	cerr := s.hs.Close()
	if err := <-s.done; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return cerr
}

// client is one keep-alive HTTP/1.1 connection. It writes requests and
// parses responses by hand so the client side adds as little work and
// allocation as possible to what is measured.
type client struct {
	addr string
	c    net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	req  []byte
	body []byte
}

func dial(addr string) (*client, error) {
	cl := &client{addr: addr}
	return cl, cl.redial()
}

func (cl *client) redial() error {
	if cl.c != nil {
		cl.c.Close()
	}
	c, err := net.Dial("tcp", cl.addr)
	if err != nil {
		return err
	}
	cl.c, cl.r, cl.w = c, bufio.NewReaderSize(c, 4096), bufio.NewWriterSize(c, 4096)
	return nil
}

func (cl *client) close() {
	if cl.c != nil {
		cl.c.Close()
	}
}

// do sends one request and returns the status and body. The body is valid
// until the next call.
func (cl *client) do(method string, path []byte) (int, []byte, error) {
	cl.req = append(cl.req[:0], method...)
	cl.req = append(cl.req, ' ')
	cl.req = append(cl.req, path...)
	cl.req = append(cl.req, " HTTP/1.1\r\nHost: pipebench\r\n"...)
	if method == "POST" {
		cl.req = append(cl.req, "Content-Length: 0\r\n"...)
	}
	cl.req = append(cl.req, "\r\n"...)
	if _, err := cl.w.Write(cl.req); err != nil {
		return 0, nil, err
	}
	if err := cl.w.Flush(); err != nil {
		return 0, nil, err
	}
	line, err := cl.r.ReadSlice('\n')
	if err != nil {
		return 0, nil, err
	}
	if len(line) < 12 || !bytes.HasPrefix(line, []byte("HTTP/1.1 ")) {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	status, err := strconv.Atoi(string(line[9:12]))
	if err != nil {
		return 0, nil, fmt.Errorf("bad status line %q", line)
	}
	length := -1
	for {
		line, err = cl.r.ReadSlice('\n')
		if err != nil {
			return 0, nil, err
		}
		if len(line) <= 2 {
			break
		}
		if k, v, ok := bytes.Cut(line, []byte(":")); ok && bytes.EqualFold(k, []byte("Content-Length")) {
			if length, err = strconv.Atoi(string(bytes.TrimSpace(v))); err != nil {
				return 0, nil, fmt.Errorf("bad Content-Length %q", v)
			}
		}
	}
	if length < 0 {
		return 0, nil, fmt.Errorf("response without Content-Length")
	}
	cl.body = slices.Grow(cl.body[:0], length)[:length]
	if _, err := io.ReadFull(cl.r, cl.body); err != nil {
		return 0, nil, err
	}
	return status, cl.body, nil
}

// query is the i-th lookup of the mix used by internal/bench's serve
// cells: half /v1/vertex, a quarter /v1/replicas, a quarter /v1/edge, with
// keys spread by hashing from the run's key seed.
type query struct {
	kind     int // 0 vertex, 1 replicas, 2 edge
	src, dst graph.VertexID
}

func queryAt(keySeed uint64, i, n int) query {
	q := query{src: graph.VertexID(xrand.Hash64(keySeed+uint64(i)) % uint64(n))}
	switch i % 4 {
	case 0, 1:
	case 2:
		q.kind = 1
	default:
		q.kind = 2
		q.dst = graph.VertexID(xrand.Hash64(^keySeed+uint64(i)) % uint64(n))
	}
	return q
}

func (q query) path(dst []byte) []byte {
	switch q.kind {
	case 0:
		dst = append(dst, "/v1/vertex/"...)
		return strconv.AppendUint(dst, uint64(q.src), 10)
	case 1:
		dst = append(dst, "/v1/replicas/"...)
		return strconv.AppendUint(dst, uint64(q.src), 10)
	}
	dst = append(dst, "/v1/edge?src="...)
	dst = strconv.AppendUint(dst, uint64(q.src), 10)
	dst = append(dst, "&dst="...)
	return strconv.AppendUint(dst, uint64(q.dst), 10)
}

// ask answers q from the snapshot in process.
func (q query) ask(s *serve.Snapshot, scratch []int32) (int32, []int32, error) {
	switch q.kind {
	case 0:
		p, err := s.Primary(q.src)
		return p, nil, err
	case 1:
		reps, err := s.Replicas(q.src, scratch[:0])
		return 0, reps, err
	}
	p, err := s.RouteEdge(q.src, q.dst)
	return p, nil, err
}

// expect appends the HTTP body the server must send for q after its
// {"epoch":N prefix, computed from the in-process snapshot.
func (q query) expect(dst []byte, s *serve.Snapshot, scratch []int32) ([]byte, []int32, error) {
	p, reps, err := q.ask(s, scratch)
	if err != nil {
		return nil, scratch, err
	}
	switch q.kind {
	case 0:
		n, err := s.Count(q.src)
		if err != nil {
			return nil, scratch, err
		}
		dst = append(dst, `,"vertex":`...)
		dst = strconv.AppendUint(dst, uint64(q.src), 10)
		dst = append(dst, `,"partition":`...)
		dst = strconv.AppendInt(dst, int64(p), 10)
		dst = append(dst, `,"replicas":`...)
		dst = strconv.AppendInt(dst, int64(n), 10)
	case 1:
		dst = append(dst, `,"vertex":`...)
		dst = strconv.AppendUint(dst, uint64(q.src), 10)
		dst = append(dst, `,"partitions":[`...)
		for i, r := range reps {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendInt(dst, int64(r), 10)
		}
		dst = append(dst, ']')
		scratch = reps
	default:
		dst = append(dst, `,"src":`...)
		dst = strconv.AppendUint(dst, uint64(q.src), 10)
		dst = append(dst, `,"dst":`...)
		dst = strconv.AppendUint(dst, uint64(q.dst), 10)
		dst = append(dst, `,"partition":`...)
		dst = strconv.AppendInt(dst, int64(p), 10)
	}
	return append(dst, '}', '\n'), scratch, nil
}

// checkAnswer compares an HTTP body with the in-process answer; the epoch
// may be any installed one.
func checkAnswer(body, want []byte, maxEpoch uint64) error {
	rest, ok := bytes.CutPrefix(body, []byte(`{"epoch":`))
	i := 0
	for ok && i < len(rest) && rest[i] >= '0' && rest[i] <= '9' {
		i++
	}
	if !ok || i == 0 {
		return fmt.Errorf("answer %q has no epoch", body)
	}
	epoch, err := strconv.ParseUint(string(rest[:i]), 10, 64)
	if err != nil || epoch < 1 || epoch > maxEpoch {
		return fmt.Errorf("answer %q has epoch outside [1, %d]", body, maxEpoch)
	}
	if !bytes.Equal(rest[i:], want) {
		return fmt.Errorf("answer %q, in-process snapshot says {\"epoch\":N%s", body, want)
	}
	return nil
}

// lookupWindow is the slice of a lookup phase each latency sample is taken
// over; the reported latencies are medians over windows, so a short stall
// of the host moves one window, not the result.
const lookupWindow = 500 * time.Millisecond

// window is one lookupWindow of lookups.
type window struct {
	rate         float64 // completed lookups per second
	p50us, p99us float64
}

// lookupStats accumulates the lookup phases of a run.
type lookupStats struct {
	attempted, failed int
	ok                int           // lookups answered correctly
	wall              time.Duration // summed length of the lookup phases
	next              int           // index of the next query of the mix
	windows           []window
	lat               []float64 // scratch: the current window's latencies
}

// rate is the run's throughput: lookups answered correctly over the summed
// wall time of its lookup phases. Every phase carries its share of any
// reloads beside it, where a median over windows would pick between the
// windows with a reload and those without.
func (st *lookupStats) rate() float64 {
	return float64(st.ok) / st.wall.Seconds()
}

// lookupProcs is the GOMAXPROCS of the lookup phases.
const lookupProcs = 1

// onOneP runs fn with GOMAXPROCS lookupProcs, so the closed-loop client and
// the server's connection goroutine hand each request over on one thread.
// With a P each, every request wakes a thread on the other CPU; on a
// shared 2-CPU host those wake-ups put the p99 lookup at 130-250 us against
// a p50 of 25 us, and throughput swung 16k-34k/s from second to second
// while the p50 held. On one P the p99 fell to 50-65 us and throughput
// follows the p50, so the lookup figures measure the serve path, not the
// scheduler.
func onOneP(fn func() error) error {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(lookupProcs))
	return fn()
}

func (st *lookupStats) median(f func(window) float64) float64 {
	xs := make([]float64, len(st.windows))
	for i, w := range st.windows {
		xs[i] = f(w)
	}
	return median(xs)
}

// lookups runs the closed-loop client on cl for d: the next request leaves
// only after the previous answer arrived and was checked against the
// server's in-process snapshot.
func lookups(cl *client, srv *serve.Server, keySeed uint64, d time.Duration, st *lookupStats) error {
	ref := srv.Current()
	n := ref.NumVertices()
	var path, want []byte
	scratch := make([]int32, 0, ref.K())
	start := time.Now()
	deadline := start.Add(d)
	winStart, winEnd := start, start.Add(lookupWindow)
	st.lat = st.lat[:0]
	for {
		q := queryAt(keySeed, st.next, n)
		st.next++
		path = q.path(path[:0])
		t0 := time.Now()
		if !t0.Before(winEnd) {
			st.closeWindow(t0.Sub(winStart))
			winStart, winEnd = t0, t0.Add(lookupWindow)
		}
		if !t0.Before(deadline) {
			st.wall += t0.Sub(start)
			break
		}
		status, body, err := cl.do("GET", path)
		t1 := time.Now()
		st.attempted++
		if err != nil {
			st.failed++
			if err := cl.redial(); err != nil {
				return err
			}
			continue
		}
		if status != http.StatusOK {
			st.failed++
			continue
		}
		if want, scratch, err = q.expect(want[:0], ref, scratch); err != nil {
			return err
		}
		if err := checkAnswer(body, want, srv.Current().Epoch()); err != nil {
			return fmt.Errorf("lookup %s: %w", path, err)
		}
		st.ok++
		st.lat = append(st.lat, t1.Sub(t0).Seconds())
	}
	// A final window cut short by the deadline counts if it is at least
	// half as long as the others.
	if wall := time.Since(winStart); wall >= lookupWindow/2 {
		st.closeWindow(wall)
	}
	return nil
}

func (st *lookupStats) closeWindow(wall time.Duration) {
	if len(st.lat) == 0 {
		return
	}
	st.windows = append(st.windows, window{
		rate:  float64(len(st.lat)) / wall.Seconds(),
		p50us: quantile(st.lat, 0.5) * 1e6,
		p99us: quantile(st.lat, 0.99) * 1e6,
	})
	st.lat = st.lat[:0]
}

// reloader sends POST /v1/reload on its own connection and times each
// round trip: open the .cpr, ReadResult, NewSnapshot, epoch swap.
type reloader struct {
	cl        *client
	srv       *serve.Server
	times     []float64
	attempted int
	failed    int
}

func (r *reloader) reload() error {
	before := r.srv.Current().Epoch()
	t0 := time.Now()
	status, body, err := r.cl.do("POST", []byte("/v1/reload"))
	d := time.Since(t0)
	r.attempted++
	if err != nil || status != http.StatusOK {
		r.failed++
		if err != nil {
			return r.cl.redial()
		}
		return nil
	}
	if got := r.srv.Current().Epoch(); got != before+1 {
		return fmt.Errorf("reload answered %q but the epoch went %d -> %d", body, before, got)
	}
	r.times = append(r.times, d.Seconds())
	return nil
}

// reloadWhile runs fn with r reloading every period beside it.
func (r *reloader) reloadWhile(period time.Duration, fn func() error) error {
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var rerr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if rerr = r.reload(); rerr != nil {
					return
				}
			}
		}
	}()
	err := fn()
	close(stop)
	wg.Wait()
	if err != nil {
		return err
	}
	return rerr
}

// querySink keeps the timed snapshot queries from being optimized away.
var querySink int32

// snapshotQueries times direct Snapshot.Primary/Replicas/RouteEdge calls
// on the lookup mix in batches and returns the median nanoseconds per
// query, and counts the allocations of a long run of them with the
// collector off.
func snapshotQueries(snap *serve.Snapshot, keySeed uint64, d time.Duration) (ns float64, allocs uint64, err error) {
	const batch = 256
	n := snap.NumVertices()
	qs := make([]query, 1<<14)
	for i := range qs {
		qs[i] = queryAt(keySeed, i, n)
	}
	scratch := make([]int32, 0, snap.K())
	runBatch := func(base int) error {
		for j := 0; j < batch; j++ {
			p, reps, err := qs[(base+j)&(len(qs)-1)].ask(snap, scratch)
			if err != nil {
				return err
			}
			querySink += p + int32(len(reps))
		}
		return nil
	}
	var per []float64
	deadline := time.Now().Add(d)
	for i := 0; len(per) < 64 || time.Now().Before(deadline); i += batch {
		t0 := time.Now()
		if err := runBatch(i); err != nil {
			return 0, 0, err
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}

	gc := debug.SetGCPercent(-1)
	defer debug.SetGCPercent(gc)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < len(qs); i += batch {
		if err := runBatch(i); err != nil {
			return 0, 0, err
		}
	}
	runtime.ReadMemStats(&after)
	return median(per), after.Mallocs - before.Mallocs, nil
}

// nullWriter is a reusable http.ResponseWriter that discards the body.
type nullWriter struct {
	h      http.Header
	status int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(s int)           { w.status = s }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }

// handlerCalls times Server.Handler().ServeHTTP in process on the lookup
// mix, in batches, and returns the median microseconds per request.
func handlerCalls(srv *serve.Server, keySeed uint64, d time.Duration) (float64, error) {
	const batch = 64
	h := srv.Handler()
	n := srv.Current().NumVertices()
	reqs := make([]*http.Request, 1<<12)
	for i := range reqs {
		req, err := http.NewRequest("GET", string(queryAt(keySeed, i, n).path(nil)), nil)
		if err != nil {
			return 0, err
		}
		reqs[i] = req
	}
	w := &nullWriter{h: http.Header{}}
	var per []float64
	deadline := time.Now().Add(d)
	for i := 0; len(per) < 64 || time.Now().Before(deadline); i += batch {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			w.status = http.StatusOK
			h.ServeHTTP(w, reqs[(i+j)&(len(reqs)-1)])
			if w.status != http.StatusOK {
				return 0, fmt.Errorf("handler answered %d", w.status)
			}
		}
		per = append(per, time.Since(t0).Seconds()*1e6/batch)
	}
	return median(per), nil
}
