package main

import (
	"io"
	"net"
	"net/http"
	"testing"
	"time"

	"hbsp/server"
)

// TestHalfWrittenHeaderIsHungUpOn: a peer that sends part of a request line
// and stops must not hold its connection (a goroutine and a descriptor) until
// the process exits. The daemon's own server is used with only the deadline
// shortened, so a server built without one fails here.
func TestHalfWrittenHeaderIsHungUpOn(t *testing.T) {
	httpSrv := newHTTPServer("", server.New(server.Config{}))
	if httpSrv.ReadHeaderTimeout != readHeaderTimeout || readHeaderTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, want the constant %v > 0", httpSrv.ReadHeaderTimeout, readHeaderTimeout)
	}
	httpSrv.ReadHeaderTimeout = 50 * time.Millisecond

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- httpSrv.Serve(ln) }()
	defer func() {
		httpSrv.Close()
		if err := <-served; err != http.ErrServerClosed {
			t.Errorf("Serve returned %v", err)
		}
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := io.WriteString(conn, "POST /v1/predict HT"); err != nil {
		t.Fatal(err)
	}
	// The server ends the connection once the deadline passes (net/http
	// answers the torn request line with a 400 first); without a deadline
	// this read ends on the client's own instead.
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadAll(conn); err != nil {
		t.Fatalf("the stalled connection was not closed by the server: %v", err)
	}

	// A complete request on a fresh connection is still served.
	resp, err := http.Get("http://" + ln.Addr().String() + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after the hang-up: status %d", resp.StatusCode)
	}
}
