package main

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro"
)

// TestMakeLoader: exactly one of -result and -in must be set, a saved
// result loads into a snapshot that answers from the written tables, and a
// corrupted result file fails the load instead of serving wrong answers.
func TestMakeLoader(t *testing.T) {
	if _, err := makeLoader("a.cpr", "b.cgr", "CLUGP", 4, 1); err == nil {
		t.Error("-result and -in together accepted")
	}
	if _, err := makeLoader("", "", "CLUGP", 4, 1); err == nil {
		t.Error("neither -result nor -in accepted")
	}

	b, err := repro.NewServeBuilder(6, 3)
	if err != nil {
		t.Fatal(err)
	}
	edges := []repro.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 3, Dst: 4}, {Src: 4, Dst: 5}}
	if err := b.Observe(edges, []int32{2, 1, 0, 2}); err != nil {
		t.Fatal(err)
	}
	saved := b.Result("hand", "natural")
	var buf bytes.Buffer
	if err := repro.WriteSavedResult(&buf, saved); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "run.cpr")
	if err := os.WriteFile(good, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	load, err := makeLoader(good, "", "CLUGP", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := load()
	if err != nil {
		t.Fatal(err)
	}
	if snap.K() != saved.K || snap.NumVertices() != saved.NumVertices {
		t.Fatalf("snapshot geometry %dk/%dv, wrote %dk/%dv", snap.K(), snap.NumVertices(), saved.K, saved.NumVertices)
	}
	// Vertex 1 is on partitions {1, 2}: its primary is the lowest, 1.
	if p, err := snap.Primary(1); err != nil || p != 1 {
		t.Fatalf("Primary(1) = %d, %v; want 1", p, err)
	}

	data := buf.Bytes()
	data[len(data)/2] ^= 0x10
	bad := filepath.Join(dir, "bad.cpr")
	if err := os.WriteFile(bad, data, 0o644); err != nil {
		t.Fatal(err)
	}
	load, err = makeLoader(bad, "", "CLUGP", 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := load(); err == nil {
		t.Fatal("result with a flipped byte loaded")
	}
}

// TestSlowHeaderClientDisconnected: a slowloris client that sends half a
// request header and then stalls is disconnected once readHeaderTimeout
// passes, while a client that sends a whole request is answered.
func TestSlowHeaderClientDisconnected(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := newHTTPServer("", http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		io.WriteString(w, "ok")
	}))
	go srv.Serve(ln)
	defer srv.Close()

	honest, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer honest.Close()
	if _, err := io.WriteString(honest, "GET /v1/healthz HTTP/1.1\r\nHost: partsrv\r\n\r\n"); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(honest), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("whole request answered %d", resp.StatusCode)
	}

	slow, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	start := time.Now()
	if _, err := io.WriteString(slow, "GET /v1/healthz HTTP/1.1\r\nHost: partsrv\r\n"); err != nil {
		t.Fatal(err)
	}
	slow.SetReadDeadline(start.Add(readHeaderTimeout + 5*time.Second))
	got, err := io.ReadAll(slow)
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		t.Fatalf("half-header client still connected %v after it stalled", time.Since(start).Round(time.Millisecond))
	}
	if waited := time.Since(start); waited < readHeaderTimeout-100*time.Millisecond {
		t.Fatalf("disconnected after %v, before the %v header timeout", waited, readHeaderTimeout)
	}
	if strings.Contains(string(got), "200 OK") {
		t.Fatalf("half a header was answered: %q", got)
	}
}
