package main

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"
)

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
