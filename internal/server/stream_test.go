package server

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

// handTimer is a flush timer the test fires by hand. Stop reports on the
// channel and answers false, as a timer whose callback has already started.
type handTimer chan struct{}

func (h handTimer) Stop() bool { h <- struct{}{}; return false }

// await receives from ch, failing the test if nothing comes within 10 s.
func await[T any](t *testing.T, ch <-chan T, what string) T {
	t.Helper()
	select {
	case v := <-ch:
		return v
	case <-time.After(10 * time.Second):
		t.Fatalf("no %s within 10 s", what)
		panic("unreachable")
	}
}

// TestSweepFlushTimerFlushesWhileAPointRuns fires a sweep's flush timer by
// hand while the sweep's third point is held mid-evaluation, so the order of
// events does not depend on how fast the machine is. The point is held on a
// flight: the test takes the server's free slot, so a single-point request
// for that point waits for a slot inside its flight, and the sweep's point
// coalesces onto it. Line 2 must reach the writer, flushed, before line 3
// exists; the timer armed for line 3 is stopped when the stream ends, and
// its callback — started too late to be stopped — is waited out: its flush
// lands before the handler returns.
func TestSweepFlushTimerFlushesWhileAPointRuns(t *testing.T) {
	const sweep = `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"allreduce"},"sweep":{"procs":[16,32,48]}}`
	const third = `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"allreduce"},"procs":48}`
	want := serveInProcess(New(Config{}), sweep, false).Body.Bytes()
	lines := bytes.SplitAfter(want, []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("reply of %d lines, want 3:\n%s", len(lines)-1, want)
	}

	arms := make(chan func()) // each armed callback, handed to the test
	goOn := make(chan struct{})
	stops := make(handTimer)
	orig := afterFunc
	t.Cleanup(func() { afterFunc = orig })
	afterFunc = func(d time.Duration, f func()) stopper {
		if d != sweepFlushAfter {
			t.Errorf("timer armed for %v, want %v", d, sweepFlushAfter)
		}
		arms <- f
		<-goOn
		return stops
	}

	s := New(Config{MaxConcurrent: 2})
	lg := &flushLog{header: http.Header{}}
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.ServeHTTP(lg, httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(sweep)))
	}()

	fire := await(t, arms, "timer armed for line 2") // line 2 is written and unflushed; the sweep waits here to go on to point 3
	if err := s.limit.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	single := make(chan []byte)
	go func() { single <- serveInProcess(s, third, false).Body.Bytes() }()
	for start := time.Now(); s.m.queued.Load() == 0; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("the single-point request never queued for a slot")
		}
	}
	goOn <- struct{}{}

	fire()
	if l12 := len(lines[0]) + len(lines[1]); len(lg.marks) != 2 || lg.marks[1] != l12 || lg.buf.Len() != l12 {
		t.Fatalf("after the timer fired mid-point: flushes at %v of %d bytes written, want [%d %d] of %d",
			lg.marks, lg.buf.Len(), len(lines[0]), l12, l12)
	}

	s.limit.release() // point 3 evaluates, and the sweep writes its line
	fireLate := await(t, arms, "timer armed for line 3")
	goOn <- struct{}{}
	await(t, stops, "Stop of the timer armed for line 3") // the stream has ended and is stopping the timer armed for line 3
	// The handler cannot return before the callback has; a close that does
	// not wait for it would return within the 20 ms.
	select {
	case <-done:
		t.Fatal("the handler returned before its timer's callback had")
	case <-time.After(20 * time.Millisecond):
	}
	fireLate()
	await(t, done, "end of the request")

	if delivered := checkFlushes(t, "hand-fired", lg, false, want); len(delivered) != 3 {
		t.Errorf("flushes delivered lines %v, want [1 2 3]", delivered)
	}
	if got := <-single; !bytes.Equal(got, lines[2]) {
		t.Errorf("single point %s, sweep's third line %s", got, lines[2])
	}
	if m := s.Metrics(); m.SweepStream.Lines != 3 || m.SweepStream.Flushes != 3 {
		t.Errorf("sweepStream %+v, want 3 lines and 3 flushes", m.SweepStream)
	}
}

// TestSharedSweepStreamFlush runs two gzip sweeps and a plain one at once,
// each with a point (a per-rank total exchange at P = 256: ≈15 ms, ≈140 ms
// under -race) that the real 1 ms timer fires during, so the timer's
// goroutine and the handler's write one reply under the stream's lock.
// Every flush ends at a line end, each gzip stream inflates to its plain
// reply, and once the requests have returned no timer goroutine is left.
func TestSharedSweepStreamFlush(t *testing.T) {
	s := New(Config{})
	body := func(seed int) string {
		return fmt.Sprintf(`{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"totalexchange","bytes":8},"seed":%d,"options":{"perRank":true},"sweep":{"procs":[16,32,256,48]}}`, seed)
	}
	streams := []struct {
		body string
		gz   bool
	}{{body(1), true}, {body(2), true}, {body(3), false}}
	base := runtime.NumGoroutine()
	logs := make([]*flushLog, len(streams))
	var wg sync.WaitGroup
	for i, st := range streams {
		logs[i] = &flushLog{header: http.Header{}}
		wg.Add(1)
		go func() {
			defer wg.Done()
			req := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(st.body))
			if st.gz {
				req.Header.Set("Accept-Encoding", "gzip")
			}
			s.ServeHTTP(logs[i], req)
		}()
	}
	wg.Wait()

	timed := 0
	for i, st := range streams {
		want := serveInProcess(s, st.body, false).Body.Bytes()
		delivered := checkFlushes(t, fmt.Sprintf("stream %d (gzip %t)", i, st.gz), logs[i], st.gz, want)
		timed += len(delivered) - 1
	}
	// Each stream's line 2 waits out the long point 3: only a timer starved
	// for that long, in all three streams, flushes nothing before the end.
	if timed == 0 {
		t.Errorf("no stream flushed a line by its timer")
	}
	for start := time.Now(); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Since(start) > 5*time.Second {
			t.Fatalf("%d goroutines after the requests, %d before", runtime.NumGoroutine(), base)
		}
	}
}
