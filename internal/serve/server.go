package serve

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/graph"
)

// Server serves partition lookups over the current Snapshot and swaps in new
// snapshots with zero downtime. The entire mutable state is one
// atomic.Pointer: a query loads the pointer exactly once and answers wholly
// from that snapshot, so every response is consistent with exactly one
// epoch - a reload mid-request cannot mix old replica bits with new sizes.
// Install builds the next snapshot off-thread (the caller's goroutine) and
// publishes it with a single pointer store; readers never block and old
// epochs die by garbage collection once their in-flight queries return.
//
// Reloads degrade gracefully: a loader failure - or a snapshot whose
// geometry does not match what is serving - never replaces the serving
// snapshot. The server keeps answering from the last good epoch, counts
// consecutive failures, exposes the last error via Stats and /v1/readyz
// (which turns 503 once the failure streak passes the policy threshold),
// and, with AutoRetry enabled, keeps retrying the reload on a capped
// exponential backoff until one succeeds.
type Server struct {
	cur    atomic.Pointer[Snapshot]
	epoch  atomic.Uint64
	mu     sync.Mutex // serializes Reload (loader + install), not queries
	loader func() (*Snapshot, error)

	// Degradation state. failures counts consecutive reload failures since
	// the last success; lastErr holds the most recent failure's message
	// (nil after a success); maxFailures is the readiness threshold.
	failures    atomic.Int64
	lastErr     atomic.Pointer[string]
	maxFailures atomic.Int64

	retryMu sync.Mutex
	kick    chan struct{} // non-nil while an AutoRetry goroutine runs
}

// DefaultMaxReloadFailures is the readiness threshold when no RetryPolicy
// sets one: /v1/readyz reports degraded after this many consecutive reload
// failures.
const DefaultMaxReloadFailures = 3

// NewServer returns a server with initial installed as epoch 1.
func NewServer(initial *Snapshot) *Server {
	s := &Server{}
	s.maxFailures.Store(DefaultMaxReloadFailures)
	s.Install(initial)
	return s
}

// Install publishes snap as the new current snapshot under the next epoch
// and returns the installed copy. The argument is copied (shallowly - the
// immutable tables are shared) so the same prepared Snapshot value can be
// installed repeatedly, and so nothing ever writes to a snapshot that
// readers already hold.
func (s *Server) Install(snap *Snapshot) *Snapshot {
	next := *snap
	next.epoch = s.epoch.Add(1)
	s.cur.Store(&next)
	return &next
}

// Current returns the snapshot serving queries right now.
func (s *Server) Current() *Snapshot { return s.cur.Load() }

// SetLoader registers the function Reload uses to build the next snapshot
// (typically: re-read the result file, NewSnapshot). The loader runs outside
// any lock held by queries; only concurrent Reloads serialize.
func (s *Server) SetLoader(fn func() (*Snapshot, error)) {
	s.mu.Lock()
	s.loader = fn
	s.mu.Unlock()
}

// Reload builds the next snapshot via the registered loader and installs
// it. Queries keep answering from the old epoch for the whole build; the
// switch is the single pointer store inside Install.
//
// A reload can only refresh the partitioning it is already serving: a
// snapshot whose vertex count or partition count differs from the current
// epoch is rejected (clients cache geometry; swapping it under them turns
// every cached partition id into a lie - changing geometry takes a restart).
// Any failure - loader error or geometry mismatch - leaves the serving
// snapshot untouched, increments the consecutive-failure count behind
// Stats and /v1/readyz, and nudges the AutoRetry loop if one is running.
// Install bypasses the guard: it is the force-install primitive for boot
// and for operators who mean it.
func (s *Server) Reload() (*Snapshot, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.loader == nil {
		return nil, fmt.Errorf("serve: no loader registered")
	}
	snap, err := s.loader()
	if err != nil {
		err = fmt.Errorf("serve: reload: %w", err)
		s.reloadFailed(err)
		return nil, err
	}
	if cur := s.cur.Load(); cur != nil && (snap.numVertices != cur.numVertices || snap.k != cur.k) {
		err := fmt.Errorf("serve: reload rejected: snapshot geometry %dv/%dk does not match serving %dv/%dk (restart to change geometry)",
			snap.numVertices, snap.k, cur.numVertices, cur.k)
		s.reloadFailed(err)
		return nil, err
	}
	s.failures.Store(0)
	s.lastErr.Store(nil)
	return s.Install(snap), nil
}

// reloadFailed records one failed reload and wakes the retry loop.
func (s *Server) reloadFailed(err error) {
	msg := err.Error()
	s.lastErr.Store(&msg)
	s.failures.Add(1)
	s.retryMu.Lock()
	if s.kick != nil {
		select {
		case s.kick <- struct{}{}:
		default:
		}
	}
	s.retryMu.Unlock()
}

// LastReloadError returns the most recent reload failure, or "" after a
// success (or before any reload).
func (s *Server) LastReloadError() string {
	if p := s.lastErr.Load(); p != nil {
		return *p
	}
	return ""
}

// ReloadFailures returns the consecutive reload failures since the last
// successful reload.
func (s *Server) ReloadFailures() int64 { return s.failures.Load() }

// Ready reports whether the server is within its failure budget: false once
// the consecutive-failure streak reaches the policy threshold. Queries keep
// being answered either way - readiness is what load balancers use to drain
// a replica whose data is going stale.
func (s *Server) Ready() bool { return s.failures.Load() < s.maxFailures.Load() }

// RetryPolicy tunes the automatic reload retry AutoRetry runs after a
// failed reload.
type RetryPolicy struct {
	// Base is the delay before the first retry. <= 0 disables the retry
	// goroutine (failures then only recover via the next explicit reload).
	Base time.Duration
	// Cap bounds the exponential backoff; <= 0 means 32x Base.
	Cap time.Duration
	// Jitter spreads each delay uniformly over [d*(1-Jitter), d*(1+Jitter)]
	// so a fleet of replicas does not hammer shared storage in lockstep.
	// Clamped to [0, 1].
	Jitter float64
	// MaxFailures is the consecutive-failure count at which Ready() and
	// /v1/readyz report degraded; <= 0 keeps DefaultMaxReloadFailures.
	MaxFailures int
}

// AutoRetry starts a goroutine that retries failed reloads on a capped
// exponential backoff with jitter: each reload failure arms it, each retry
// that fails doubles the delay (up to policy.Cap), and the first success
// disarms it until the next failure. The returned stop function terminates
// the goroutine (idempotent per call site; call it on shutdown). The
// policy's MaxFailures takes effect even when Base <= 0 disables retrying.
func (s *Server) AutoRetry(policy RetryPolicy) (stop func()) {
	if policy.MaxFailures > 0 {
		s.maxFailures.Store(int64(policy.MaxFailures))
	}
	if policy.Base <= 0 {
		return func() {}
	}
	if policy.Cap <= 0 {
		policy.Cap = 32 * policy.Base
	}
	if policy.Jitter < 0 {
		policy.Jitter = 0
	}
	if policy.Jitter > 1 {
		policy.Jitter = 1
	}
	kick := make(chan struct{}, 1)
	stopc := make(chan struct{})
	s.retryMu.Lock()
	s.kick = kick
	s.retryMu.Unlock()
	go func() {
		for {
			select {
			case <-stopc:
				return
			case <-kick:
			}
			if s.failures.Load() == 0 {
				continue // already recovered by an explicit reload
			}
			delay := policy.Base
			for {
				timer := time.NewTimer(jittered(delay, policy.Jitter))
				select {
				case <-stopc:
					timer.Stop()
					return
				case <-timer.C:
				}
				if _, err := s.Reload(); err == nil {
					break
				}
				if delay *= 2; delay > policy.Cap {
					delay = policy.Cap
				}
			}
		}
	}()
	var once sync.Once
	return func() {
		once.Do(func() {
			close(stopc)
			s.retryMu.Lock()
			if s.kick == kick {
				s.kick = nil
			}
			s.retryMu.Unlock()
		})
	}
}

// jittered spreads d uniformly over [d*(1-j), d*(1+j)].
func jittered(d time.Duration, j float64) time.Duration {
	if j <= 0 {
		return d
	}
	f := 1 + j*(2*rand.Float64()-1)
	return time.Duration(float64(d) * f)
}

// scratch is the per-request working set for the hot endpoints: one
// response buffer and one replica-id slice, pooled so steady-state query
// handling does not allocate. (The HTTP stack itself reuses its connection
// buffers; with this pool the handler adds nothing on top.)
type scratch struct {
	buf  []byte
	reps []int32
}

var scratchPool = sync.Pool{New: func() any {
	return &scratch{buf: make([]byte, 0, 512), reps: make([]int32, 0, 64)}
}}

// Handler returns the HTTP API:
//
//	GET  /v1/vertex/{id}    -> {"epoch":E,"vertex":V,"partition":P,"replicas":N}
//	GET  /v1/replicas/{id}  -> {"epoch":E,"vertex":V,"partitions":[...]}
//	GET  /v1/edge?src=&dst= -> {"epoch":E,"src":S,"dst":D,"partition":P}
//	GET  /v1/stats          -> snapshot metadata + sizes + reload health
//	POST /v1/reload         -> rebuild via the loader, swap epochs
//	GET  /v1/healthz        -> liveness: ok while the process serves at all
//	GET  /v1/readyz         -> readiness: 503 once consecutive reload
//	                           failures reach the policy threshold
//	GET  /healthz           -> ok (legacy alias of /v1/healthz)
//
// Every response carries the epoch it was answered under, which is what the
// hot-reload harness asserts consistency against. The three query endpoints
// hand-roll their JSON into a pooled buffer - no json.Marshal, no
// fmt.Sprintf - so the query path is allocation-free at steady state.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/vertex/{id}", s.handleVertex)
	mux.HandleFunc("GET /v1/replicas/{id}", s.handleReplicas)
	mux.HandleFunc("GET /v1/edge", s.handleEdge)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("POST /v1/reload", s.handleReload)
	liveness := func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok\n"))
	}
	mux.HandleFunc("GET /v1/healthz", liveness)
	mux.HandleFunc("GET /healthz", liveness)
	mux.HandleFunc("GET /v1/readyz", s.handleReady)
	return mux
}

// parseVertex parses a decimal vertex id. Range checking against the
// snapshot happens in the query itself.
func parseVertex(str string) (graph.VertexID, bool) {
	u, err := strconv.ParseUint(str, 10, 32)
	if err != nil {
		return 0, false
	}
	return graph.VertexID(u), true
}

func writeJSON(w http.ResponseWriter, status int, buf []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(buf)
}

func badRequest(w http.ResponseWriter, msg string) {
	http.Error(w, msg, http.StatusBadRequest)
}

func (s *Server) handleVertex(w http.ResponseWriter, r *http.Request) {
	v, ok := parseVertex(r.PathValue("id"))
	if !ok {
		badRequest(w, "bad vertex id")
		return
	}
	snap := s.cur.Load()
	p, err := snap.Primary(v)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	n, _ := snap.Count(v)
	sc := scratchPool.Get().(*scratch)
	b := sc.buf[:0]
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, snap.epoch, 10)
	b = append(b, `,"vertex":`...)
	b = strconv.AppendUint(b, uint64(v), 10)
	b = append(b, `,"partition":`...)
	b = strconv.AppendInt(b, int64(p), 10)
	b = append(b, `,"replicas":`...)
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, '}', '\n')
	writeJSON(w, http.StatusOK, b)
	sc.buf = b
	scratchPool.Put(sc)
}

func (s *Server) handleReplicas(w http.ResponseWriter, r *http.Request) {
	v, ok := parseVertex(r.PathValue("id"))
	if !ok {
		badRequest(w, "bad vertex id")
		return
	}
	snap := s.cur.Load()
	sc := scratchPool.Get().(*scratch)
	reps, err := snap.Replicas(v, sc.reps[:0])
	if err != nil {
		scratchPool.Put(sc)
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	b := sc.buf[:0]
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, snap.epoch, 10)
	b = append(b, `,"vertex":`...)
	b = strconv.AppendUint(b, uint64(v), 10)
	b = append(b, `,"partitions":[`...)
	for i, p := range reps {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(p), 10)
	}
	b = append(b, ']', '}', '\n')
	writeJSON(w, http.StatusOK, b)
	sc.buf, sc.reps = b, reps
	scratchPool.Put(sc)
}

func (s *Server) handleEdge(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	src, ok1 := parseVertex(q.Get("src"))
	dst, ok2 := parseVertex(q.Get("dst"))
	if !ok1 || !ok2 {
		badRequest(w, "bad src/dst vertex id")
		return
	}
	snap := s.cur.Load()
	p, err := snap.RouteEdge(src, dst)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	sc := scratchPool.Get().(*scratch)
	b := sc.buf[:0]
	b = append(b, `{"epoch":`...)
	b = strconv.AppendUint(b, snap.epoch, 10)
	b = append(b, `,"src":`...)
	b = strconv.AppendUint(b, uint64(src), 10)
	b = append(b, `,"dst":`...)
	b = strconv.AppendUint(b, uint64(dst), 10)
	b = append(b, `,"partition":`...)
	b = strconv.AppendInt(b, int64(p), 10)
	b = append(b, '}', '\n')
	writeJSON(w, http.StatusOK, b)
	sc.buf = b
	scratchPool.Put(sc)
}

// Stats is the /v1/stats response shape (also returned by cmd/partsrv's
// startup log). Stats is cold-path: plain json.Marshal.
type Stats struct {
	Epoch     uint64  `json:"epoch"`
	Algorithm string  `json:"algorithm"`
	Order     string  `json:"order"`
	K         int     `json:"k"`
	Vertices  int     `json:"vertices"`
	Edges     int64   `json:"edges"`
	Sizes     []int64 `json:"sizes"`
	// Reload health: whether the replica is within its failure budget, how
	// many reloads have failed consecutively, and the latest failure.
	Ready           bool   `json:"ready"`
	ReloadFailures  int64  `json:"reload_failures"`
	LastReloadError string `json:"last_reload_error,omitempty"`
}

// StatsOf summarises a snapshot.
func StatsOf(snap *Snapshot) Stats {
	return Stats{
		Epoch:     snap.epoch,
		Algorithm: snap.algorithm,
		Order:     snap.order,
		K:         snap.k,
		Vertices:  snap.numVertices,
		Edges:     snap.numEdges,
		Sizes:     snap.AppendSizes(nil),
	}
}

// Stats summarises the serving snapshot plus the server's reload health.
func (s *Server) Stats() Stats {
	st := StatsOf(s.cur.Load())
	st.ReloadFailures = s.failures.Load()
	st.LastReloadError = s.LastReloadError()
	st.Ready = st.ReloadFailures < s.maxFailures.Load()
	return st
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	b, err := json.Marshal(s.Stats())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, http.StatusOK, append(b, '\n'))
}

// handleReady answers readiness: 200 while the replica is within its
// reload-failure budget, 503 once the streak passes the threshold. The
// body carries the streak and the last error either way, so a probe log
// explains itself.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	type readiness struct {
		Ready           bool   `json:"ready"`
		ReloadFailures  int64  `json:"reload_failures"`
		LastReloadError string `json:"last_reload_error,omitempty"`
	}
	r := readiness{
		Ready:           s.Ready(),
		ReloadFailures:  s.failures.Load(),
		LastReloadError: s.LastReloadError(),
	}
	b, _ := json.Marshal(r)
	status := http.StatusOK
	if !r.Ready {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, append(b, '\n'))
}

func (s *Server) handleReload(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	hasLoader := s.loader != nil
	s.mu.Unlock()
	if !hasLoader {
		http.Error(w, "no loader configured", http.StatusNotImplemented)
		return
	}
	if _, err := s.Reload(); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	b, _ := json.Marshal(s.Stats())
	writeJSON(w, http.StatusOK, append(b, '\n'))
}
