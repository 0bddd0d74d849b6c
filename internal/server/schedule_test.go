package server

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hbsp/collective"
	"hbsp/sched"
	"hbsp/sim"
)

// serveInProcess answers one predict request on the handler itself — no
// socket, no client — so a MemStats delta around it is the server's own.
func serveInProcess(s *Server, body string, gz bool) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// totalAlloc returns the bytes fn allocated (every goroutine's, so callers
// keep the process quiet).
func totalAlloc(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

func gunzip(t *testing.T, data []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	out, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestGzipHitTakesItsWriterFromThePool bounds what a compressed cache hit
// allocates. A gzip.Writer is ≈800 KiB of tables; built per reply it was
// nearly all of a hit's garbage, and with the daemon's heap no longer padded
// by dense patterns that garbage set the collection rate. A hit now writes
// its entry's stored encoding, and the one compression before it takes its
// writer from the pool (TestCachedGzipCompressesOnce). The bound is on the
// cheapest of the measured hits: sync.Pool may give a writer up at any
// collection (and drops one Put in four under the race detector), so a mean
// would measure the pool's eviction, while a hit that builds its own
// compressor can never come in under it.
func TestGzipHitTakesItsWriterFromThePool(t *testing.T) {
	s := New(Config{})
	body := `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"allreduce","bytes":4096},"procs":512,"options":{"perRank":true}}`
	plain := serveInProcess(s, body, false)
	if plain.Code != 200 || plain.Body.Len() < gzipMinBytes {
		t.Fatalf("status %d, %d bytes: want a 200 of at least %d bytes", plain.Code, plain.Body.Len(), gzipMinBytes)
	}
	warm := serveInProcess(s, body, true) // the entry's one compression
	if warm.Header().Get("Content-Encoding") != "gzip" || warm.Header().Get("X-Hbspd-Cache") != "hit" {
		t.Fatalf("warm-up: encoding %q, cache %q", warm.Header().Get("Content-Encoding"), warm.Header().Get("X-Hbspd-Cache"))
	}
	least := ^uint64(0)
	for i := 0; i < 20; i++ {
		var rec *httptest.ResponseRecorder
		least = min(least, totalAlloc(func() { rec = serveInProcess(s, body, true) }))
		if got := gunzip(t, rec.Body.Bytes()); !bytes.Equal(got, plain.Body.Bytes()) {
			t.Fatalf("hit %d: decompressed reply differs from the uncompressed one", i)
		}
	}
	t.Logf("cheapest of 20 compressed hits: %d bytes allocated", least)
	if least >= 64<<10 {
		t.Errorf("the cheapest of 20 compressed hits allocated %d KiB, want < 64 (a gzip.Writer per reply is ≈800)", least>>10)
	}
}

// flushLog is a ResponseWriter that records where in the compressed stream
// every Flush fell.
type flushLog struct {
	header http.Header
	buf    bytes.Buffer
	marks  []int
}

func (f *flushLog) Header() http.Header         { return f.header }
func (f *flushLog) WriteHeader(int)             {}
func (f *flushLog) Write(b []byte) (int, error) { return f.buf.Write(b) }
func (f *flushLog) Flush()                      { f.marks = append(f.marks, f.buf.Len()) }

// TestInterleavedGzipSweepsStreamLineByLine runs two gzip sweeps at once, on
// compressors out of the one pool: each must still flush a decodable stream
// after every point — what has been flushed after line k inflates to exactly
// lines 1…k of the uncompressed reply.
func TestInterleavedGzipSweepsStreamLineByLine(t *testing.T) {
	s := New(Config{})
	sweeps := []string{
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"allreduce"},"options":{"perRank":true},"sweep":{"procs":[16,32,48,64,96,128]}}`,
		`{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"allgather"},"options":{"perRank":true},"sweep":{"procs":[24,40,56,72,104,136]}}`,
	}
	for round := 0; round < 3; round++ { // fresh, then twice from the cache: the pool is warm
		logs := make([]*flushLog, len(sweeps))
		var wg sync.WaitGroup
		for i, body := range sweeps {
			logs[i] = &flushLog{header: http.Header{}}
			wg.Add(1)
			go func() {
				defer wg.Done()
				req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(body))
				req.Header.Set("Accept-Encoding", "gzip")
				s.ServeHTTP(logs[i], req)
			}()
		}
		wg.Wait()
		for i, body := range sweeps {
			want := serveInProcess(s, body, false).Body.Bytes()
			lines := bytes.SplitAfter(want, []byte("\n"))
			lines = lines[:len(lines)-1] // the empty tail after the last newline
			lg := logs[i]
			if len(lg.marks) != len(lines) {
				t.Fatalf("round %d sweep %d: %d flushes for %d lines", round, i, len(lg.marks), len(lines))
			}
			for k, mark := range lg.marks {
				zr, err := gzip.NewReader(bytes.NewReader(lg.buf.Bytes()[:mark]))
				if err != nil {
					t.Fatal(err)
				}
				got, err := io.ReadAll(zr) // the stream is cut at a flush: unexpected EOF after the data
				if err != io.ErrUnexpectedEOF {
					t.Fatalf("round %d sweep %d flush %d: read error %v, want a cut stream", round, i, k, err)
				}
				if !bytes.Equal(got, bytes.Join(lines[:k+1], nil)) {
					t.Fatalf("round %d sweep %d: flush %d does not inflate to the first %d lines", round, i, k, k+1)
				}
			}
			if got := gunzip(t, lg.buf.Bytes()); !bytes.Equal(got, want) {
				t.Fatalf("round %d sweep %d: decompressed stream differs from the uncompressed reply", round, i)
			}
		}
	}
}

// TestTotalExchangeP1024 serves the request the dense representation could
// not: a total exchange at P=1024 is 1023 stage matrices, 9.7 GB; as a
// streamed circulant it is 16 KB, verified by the same recursion. The reply
// must equal a direct RunSchedule of the streamed generator, and the request
// must not build anything P×P on the way.
func TestTotalExchangeP1024(t *testing.T) {
	if testing.Short() {
		t.Skip("a million messages")
	}
	const procs, blockBytes, seed = 1024, 512, 7
	s := New(Config{})
	body := fmt.Sprintf(`{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"totalexchange","bytes":%d},"procs":%d,"seed":%d}`, blockBytes, procs, seed)
	var rec *httptest.ResponseRecorder
	alloc := totalAlloc(func() { rec = serveInProcess(s, body, false) })
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	t.Logf("P=%d total exchange: %d KiB allocated", procs, alloc>>10)
	if alloc >= 32<<20 {
		t.Errorf("the request allocated %d MiB, want < 32", alloc>>20)
	}
	var got PredictPoint
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}

	rp, err := s.resolveProfile(&ProfileSpec{Preset: "xeon-cluster"}, ScaleSpec{}, procs)
	if err != nil {
		t.Fatal(err)
	}
	sch, err := collective.StreamTotalExchange(procs, blockBytes)
	if err != nil {
		t.Fatal(err)
	}
	o := sim.DefaultOptions()
	o.AckSends = true
	want, err := sched.RunSchedule(context.Background(), rp.cluster.WithRunSeed(seed), sch, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	if got.MakeSpan != want.MakeSpan || got.Messages != want.Messages || got.BytesMoved != want.Bytes {
		t.Errorf("reply makespan %v, %d messages, %d bytes; RunSchedule %v, %d, %d",
			got.MakeSpan, got.Messages, got.BytesMoved, want.MakeSpan, want.Messages, want.Bytes)
	}
	if want.Messages != procs*(procs-1) {
		t.Errorf("%d messages, want P(P−1) = %d", want.Messages, procs*(procs-1))
	}
}

// TestServedCollectivesRetainNoDenseSchedule answers a point for every data
// collective at three rank counts and four payload sizes, and the three
// barrier variants, and then looks at what the server still holds: schedules,
// machines, evaluators and replies together must stay far below what one dense
// collective pattern at P=512 used to take (20 MB; the 63 schedules here came
// to hundreds of MB).
func TestServedCollectivesRetainNoDenseSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("63 points up to P=512")
	}
	s := New(Config{})
	var bodies []string
	for _, kind := range []string{"broadcast", "reduce", "allreduce", "allgather", "totalexchange"} {
		for _, p := range []int{64, 256, 512} {
			for _, b := range []int{8, 1024, 65536, 1 << 20} {
				bodies = append(bodies, fmt.Sprintf(`{"profile":{"preset":"xeon-cluster"},"workload":{"kind":%q,"bytes":%d},"procs":%d}`, kind, b, p))
			}
		}
	}
	for _, variant := range []string{"dissemination", "tree", "linear"} {
		bodies = append(bodies, fmt.Sprintf(`{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"barrier","variant":%q},"procs":256}`, variant))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for _, body := range bodies {
		if rec := serveInProcess(s, body, false); rec.Code != 200 {
			t.Fatalf("%s: status %d: %s", body, rec.Code, rec.Body.Bytes())
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	t.Logf("live heap after %d points: +%d KiB", len(bodies), grown>>10)
	if grown >= 32<<20 {
		t.Errorf("the live heap grew by %d MiB over %d points, want < 32", grown>>20, len(bodies))
	}
	runtime.KeepAlive(s)
}

// TestTreeAndLinearBarriersAtP8192 serves the two barriers whose schedules
// were built as stage matrices: at P=8192 the tree's 26 of them came to about
// 1.7 GB, the P² growth of the 412 MB one request took at 4,096. As edge lists
// both are O(P·stages), and each request, schedule build and verification
// included, must answer 200 inside 64 MB.
func TestTreeAndLinearBarriersAtP8192(t *testing.T) {
	for _, variant := range []string{"tree", "linear"} {
		s := New(Config{})
		body := fmt.Sprintf(`{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"barrier","variant":%q},"procs":8192}`, variant)
		var rec *httptest.ResponseRecorder
		alloc := totalAlloc(func() { rec = serveInProcess(s, body, false) })
		if rec.Code != 200 {
			t.Fatalf("barrier:%s: status %d: %s", variant, rec.Code, rec.Body.Bytes())
		}
		t.Logf("barrier:%s at P=8192: %d KiB allocated", variant, alloc>>10)
		if alloc >= 64<<20 {
			t.Errorf("barrier:%s at P=8192 allocated %d MiB, want < 64", variant, alloc>>20)
		}
	}
}
