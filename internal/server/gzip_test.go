package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
)

func TestAcceptsGzip(t *testing.T) {
	for _, tc := range []struct {
		header string
		want   bool
	}{
		{"", false},
		{"gzip", true},
		{"GZIP", true},
		{"x-gzip", true},
		{"gzip; q=0", false},
		{"gzip;q=0.0", false},
		{"gzip;q=0.000", false},
		{"gzip;Q=0", false},
		{"gzip;q=0, *", false},
		{"*", true},
		{"*;q=0", false},
		{"identity", false},
		{"deflate, gzip;q=0.5", true},
		{"br;q=1.0, gzip;q=0.0", false},
	} {
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", nil)
		r.Header.Set("Accept-Encoding", tc.header)
		if got := acceptsGzip(r); got != tc.want {
			t.Errorf("Accept-Encoding %q: gzip %t, want %t", tc.header, got, tc.want)
		}
	}
}

// countCompressions wraps compress for the test and returns the number of
// bodies it has compressed.
func countCompressions(t *testing.T) *atomic.Int64 {
	t.Helper()
	orig := compress
	t.Cleanup(func() { compress = orig })
	n := new(atomic.Int64)
	compress = func(body []byte) []byte {
		n.Add(1)
		return orig(body)
	}
	return n
}

// bigPoint is a single point whose reply is over gzipMinBytes.
const bigPoint = `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"allreduce","bytes":4096},"procs":512,"options":{"perRank":true}}`

// TestCachedGzipCompressesOnce counts compressions per cache entry: a key
// requested plain and then gzip 20 times compresses once, as does a key
// whose first request is a gzip miss, and a key only ever requested plain
// never does. Every compressed reply inflates to the plain one and is, byte
// for byte, what the streaming writer makes of the same body.
func TestCachedGzipCompressesOnce(t *testing.T) {
	n := countCompressions(t)
	s := New(Config{})

	plain := serveInProcess(s, bigPoint, false)
	if plain.Code != 200 || plain.Body.Len() < gzipMinBytes {
		t.Fatalf("status %d, %d bytes: want a 200 of at least %d bytes", plain.Code, plain.Body.Len(), gzipMinBytes)
	}
	streamed := httptest.NewRecorder()
	gw := newGzipResponse(streamed)
	gw.Write(plain.Body.Bytes())
	gw.Close()
	for i := 0; i < 20; i++ {
		rec := serveInProcess(s, bigPoint, true)
		if rec.Header().Get("Content-Encoding") != "gzip" || rec.Header().Get("X-Hbspd-Cache") != "hit" {
			t.Fatalf("hit %d: encoding %q, cache %q", i, rec.Header().Get("Content-Encoding"), rec.Header().Get("X-Hbspd-Cache"))
		}
		if !bytes.Equal(rec.Body.Bytes(), streamed.Body.Bytes()) {
			t.Fatalf("hit %d: the stored encoding differs from the streaming writer's", i)
		}
		if got := gunzip(t, rec.Body.Bytes()); !bytes.Equal(got, plain.Body.Bytes()) {
			t.Fatalf("hit %d: decompressed reply differs from the uncompressed one", i)
		}
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("20 gzip hits on one key compressed %d times, want 1", got)
	}

	// A gzip miss fills the entry's encoding; the hits after it reuse it.
	missFirst := `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"allgather","bytes":64},"procs":512,"options":{"perRank":true}}`
	want := serveInProcess(New(Config{}), missFirst, false).Body.Bytes()
	n.Store(0)
	for i, how := range []string{"miss", "hit", "hit", "hit"} {
		rec := serveInProcess(s, missFirst, true)
		if rec.Header().Get("X-Hbspd-Cache") != how || rec.Header().Get("Content-Encoding") != "gzip" {
			t.Fatalf("request %d: cache %q, encoding %q, want a gzip %s", i, rec.Header().Get("X-Hbspd-Cache"), rec.Header().Get("Content-Encoding"), how)
		}
		if got := gunzip(t, rec.Body.Bytes()); !bytes.Equal(got, want) {
			t.Fatalf("request %d: decompressed reply differs from the uncompressed one", i)
		}
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("a gzip miss and 3 gzip hits compressed %d times, want 1", got)
	}

	// A key never asked for gzip never compresses, nor does a reply under
	// the floor.
	n.Store(0)
	serveInProcess(s, `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"broadcast","bytes":64},"procs":512,"options":{"perRank":true}}`, false)
	small := serveInProcess(s, `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"barrier"},"procs":8}`, true)
	if small.Header().Get("Content-Encoding") != "" || small.Body.Len() >= gzipMinBytes {
		t.Fatalf("a %d-byte reply was sent with encoding %q", small.Body.Len(), small.Header().Get("Content-Encoding"))
	}
	if got := n.Load(); got != 0 {
		t.Fatalf("plain requests and a small reply compressed %d times, want 0", got)
	}
	if m := s.Metrics(); m.Gzip.Computed != 2 || m.Gzip.Reused != 19+3 {
		t.Fatalf("metrics gzip %+v, want 2 computed and 22 reused", m.Gzip)
	}
}

// TestSharedCachedGzip makes the first gzip requests for one fresh key from
// eight goroutines while eight others ask for it plain: every reply must
// inflate to the plain body, and the key must be compressed once — no
// request compresses beside or after the one whose encoding is stored.
func TestSharedCachedGzip(t *testing.T) {
	n := countCompressions(t)
	s := New(Config{})
	const each = 8
	replies := make([]*httptest.ResponseRecorder, 2*each)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := range replies {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			replies[i] = serveInProcess(s, bigPoint, i < each)
		}()
	}
	close(start)
	wg.Wait()

	want := serveInProcess(s, bigPoint, false).Body.Bytes()
	for i, rec := range replies {
		got := rec.Body.Bytes()
		if zipped := rec.Header().Get("Content-Encoding") == "gzip"; zipped != (i < each) {
			t.Fatalf("reply %d: encoding %q", i, rec.Header().Get("Content-Encoding"))
		} else if zipped {
			got = gunzip(t, got)
		}
		if rec.Code != 200 || !bytes.Equal(got, want) {
			t.Fatalf("reply %d: status %d, body differs from the plain reply", i, rec.Code)
		}
	}
	if got := n.Load(); got != 1 {
		t.Fatalf("%d first gzip requests for one key compressed %d times, want 1", each, got)
	}
	if m := s.Metrics(); m.Gzip.Computed != 1 || m.Gzip.Reused != each-1 {
		t.Fatalf("metrics gzip %+v, want 1 computed and %d reused", m.Gzip, each-1)
	}
}
