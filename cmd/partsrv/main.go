// Command partsrv serves a finished graph partitioning over HTTP: vertex
// lookups, replica sets and edge routing, answered from an immutable
// in-memory snapshot of the partition result.
//
// Usage:
//
//	partsrv -result run.cpr -addr :8080            # serve a saved result
//	partsrv -in graph.cgr -k 32 -addr :8080        # partition on boot, then serve
//
// Input is either a saved result file (clugp -result run.cpr, or
// repro.WriteSavedResult) or a compressed .cgr graph, which is partitioned
// out-of-core on boot with the chosen algorithm - the assignment is never
// materialized; the serving tables are built directly from the emitted
// stream.
//
// Endpoints:
//
//	GET  /v1/vertex/{id}     primary partition + replica count
//	GET  /v1/replicas/{id}   full replica set P(v)
//	GET  /v1/edge?src=&dst=  edge-routing decision (vertex-cut rule)
//	GET  /v1/stats           snapshot metadata + sizes + reload health
//	POST /v1/reload          rebuild from the input and swap epochs
//	GET  /v1/healthz         liveness (also /healthz)
//	GET  /v1/readyz          readiness; 503 while degraded
//
// SIGHUP triggers the same reload as POST /v1/reload: the next snapshot is
// built off-thread from the input file and swapped in with a single atomic
// pointer store. In-flight queries keep answering from the epoch they
// loaded; no request ever blocks on, or tears across, a reload.
//
// SIGTERM/SIGINT shut down gracefully: the listener stops accepting,
// in-flight queries drain for up to -drain-timeout, the reload-retry loop
// stops, and the process exits 0 - the contract a rolling restart or an
// orchestrator's preStop expects. A second signal aborts immediately.
//
// Reloads degrade gracefully rather than fail the service: if the input
// file is missing, corrupt (CGR3/CPR2 checksums catch silent bit rot) or
// changes geometry (vertex or partition count - rejected, since cached
// partition ids would turn into lies), the serving snapshot stays exactly
// as it was and queries keep answering from the last good epoch. The
// failure is counted and surfaced in /v1/stats, and after -max-reload-failures
// consecutive failures /v1/readyz turns 503 so a load balancer can drain
// the replica while /v1/healthz keeps reporting the process alive. Failed
// reloads are retried automatically on a capped exponential backoff with
// jitter (-reload-retry, -reload-retry-cap) until one succeeds.
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro"
)

func main() {
	var (
		result = flag.String("result", "", "saved partition result (.cpr) to serve")
		in     = flag.String("in", "", "compressed .cgr graph to partition on boot (alternative to -result)")
		algo   = flag.String("algo", "CLUGP", "algorithm for -in partitioning on boot")
		k      = flag.Int("k", 32, "partition count for -in")
		seed   = flag.Uint64("seed", 42, "seed for -in")
		addr   = flag.String("addr", ":8080", "listen address")

		retryBase   = flag.Duration("reload-retry", time.Second, "delay before the first automatic retry of a failed reload (0 disables)")
		retryCap    = flag.Duration("reload-retry-cap", time.Minute, "upper bound of the reload retry backoff")
		maxFailures = flag.Int("max-reload-failures", 3, "consecutive reload failures before /v1/readyz reports degraded")
		drain       = flag.Duration("drain-timeout", 10*time.Second, "how long SIGTERM/SIGINT waits for in-flight queries before exiting anyway")
	)
	flag.Parse()

	loader, err := makeLoader(*result, *in, *algo, *k, *seed)
	if err != nil {
		fail(err)
	}
	snap, err := loader()
	if err != nil {
		fail(err)
	}
	srv := repro.NewServeServer(snap)
	srv.SetLoader(loader)
	stopRetry := srv.AutoRetry(repro.ServeRetryPolicy{
		Base:        *retryBase,
		Cap:         *retryCap,
		Jitter:      0.2,
		MaxFailures: *maxFailures,
	})
	defer stopRetry()
	logStats(srv.Current())

	hup := make(chan os.Signal, 1)
	signal.Notify(hup, syscall.SIGHUP)
	go func() {
		for range hup {
			next, err := srv.Reload()
			if err != nil {
				fmt.Fprintln(os.Stderr, "partsrv: SIGHUP reload failed:", err)
				continue
			}
			fmt.Println("partsrv: reloaded on SIGHUP")
			logStats(next)
		}
	}()

	server := newHTTPServer(*addr, srv.Handler())

	// Graceful shutdown: Shutdown stops the listener and waits for in-flight
	// requests; ListenAndServe then returns ErrServerClosed, and main waits
	// for the drain to finish before exiting 0. A second signal skips the
	// drain.
	done := make(chan struct{})
	term := make(chan os.Signal, 2)
	signal.Notify(term, syscall.SIGTERM, os.Interrupt)
	go func() {
		defer close(done)
		s := <-term
		fmt.Printf("partsrv: %v: draining (up to %v; signal again to abort)\n", s, *drain)
		go func() {
			<-term
			fmt.Fprintln(os.Stderr, "partsrv: second signal, aborting drain")
			os.Exit(1)
		}()
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := server.Shutdown(ctx); err != nil {
			fmt.Fprintln(os.Stderr, "partsrv: drain timed out, closing:", err)
			server.Close()
		}
	}()

	fmt.Printf("partsrv: listening on %s\n", *addr)
	err = server.ListenAndServe()
	if err != nil && err != http.ErrServerClosed {
		fail(err)
	}
	<-done
	// stopRetry runs via its defer on return, ending the reload-retry loop.
	fmt.Println("partsrv: drained, exiting")
}

// Connection timeouts keep the daemon bounded under slow or hostile
// clients: a client that trickles its request header (slowloris) is
// disconnected after readHeaderTimeout, a whole request must arrive within
// readTimeout, and an idle keep-alive connection is closed after
// idleTimeout. Queries are small GETs answered from memory, so honest
// clients finish far inside each bound.
const (
	readHeaderTimeout = 5 * time.Second
	readTimeout       = 10 * time.Second
	idleTimeout       = 60 * time.Second
)

// newHTTPServer returns the daemon's HTTP server with its connection
// timeouts.
func newHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: readHeaderTimeout,
		ReadTimeout:       readTimeout,
		IdleTimeout:       idleTimeout,
	}
}

// makeLoader returns the snapshot builder both boot and every reload use:
// re-read the saved result, or re-partition the graph file out-of-core with
// the serving tables accumulated from the emitted stream.
func makeLoader(result, in, algo string, k int, seed uint64) (func() (*repro.ServeSnapshot, error), error) {
	switch {
	case result != "" && in != "":
		return nil, fmt.Errorf("-result and -in are mutually exclusive")
	case result != "":
		return func() (*repro.ServeSnapshot, error) {
			saved, err := loadResult(result)
			if err != nil {
				return nil, err
			}
			return repro.NewServeSnapshot(saved)
		}, nil
	case in != "":
		return func() (*repro.ServeSnapshot, error) {
			saved, err := partitionFile(in, algo, k, seed)
			if err != nil {
				return nil, err
			}
			return repro.NewServeSnapshot(saved)
		}, nil
	}
	return nil, fmt.Errorf("need -result FILE.cpr or -in FILE.cgr")
}

func loadResult(path string) (*repro.SavedResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return repro.ReadSavedResult(bufio.NewReaderSize(f, 1<<16))
}

// partitionFile streams a .cgr file through the algorithm out-of-core,
// chaining a ServeBuilder onto the emit callback so the serving tables are
// the only partition-sized state ever held.
func partitionFile(path, algo string, k int, seed uint64) (*repro.SavedResult, error) {
	p, err := repro.NewPartitioner(algo, seed)
	if err != nil {
		return nil, err
	}
	src, err := repro.OpenCompressed(path)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	b, err := repro.NewServeBuilder(src.NumVertices(), k)
	if err != nil {
		return nil, err
	}
	res, err := repro.RunOutOfCore(p, src, k, b.Observe)
	if err != nil {
		return nil, err
	}
	return b.Result(res.Algorithm, res.Order.String()), nil
}

func logStats(snap *repro.ServeSnapshot) {
	st := repro.ServeStatsOf(snap)
	fmt.Printf("partsrv: epoch %d: %s/%s, k=%d, %d vertices, %d edges\n",
		st.Epoch, st.Algorithm, st.Order, st.K, st.Vertices, st.Edges)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "partsrv:", err)
	os.Exit(1)
}
