package server

import (
	"context"
	"errors"
	"io"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func newReader(s string) io.Reader { return strings.NewReader(s) }

func readAll(r io.Reader) ([]byte, error) { return io.ReadAll(r) }

func TestLRUEviction(t *testing.T) {
	c := newLRU(2)
	c.Put("a", 1)
	c.Put("b", 2)
	if _, ok := c.Get("a"); !ok { // refresh a: b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if c.Len() != 2 {
		t.Fatalf("len %d, want 2", c.Len())
	}
}

func TestLRUDisabled(t *testing.T) {
	c := newLRU(0)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("zero-capacity cache stored an entry")
	}
	c = newLRU(-1)
	c.Put("a", 1)
	if _, ok := c.Get("a"); ok {
		t.Fatal("negative-capacity cache stored an entry")
	}
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 8
	var wg sync.WaitGroup
	shared := make([]bool, n)
	vals := make([]*rendered, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, sh, err := g.Do("k", func() (*rendered, error) {
				calls.Add(1)
				<-gate
				return &rendered{body: []byte("result")}, nil
			})
			if err != nil {
				t.Error(err)
			}
			vals[i], shared[i] = v, sh
		}(i)
	}
	// Let every goroutine reach Do before releasing the leader. The sleep
	// only risks fewer coalesced followers, never flakiness.
	time.Sleep(20 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	leaders := 0
	for i := range shared {
		if vals[i] != vals[0] || string(vals[i].body) != "result" {
			t.Fatalf("caller %d got %q, not the leader's entry", i, vals[i].body)
		}
		if !shared[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d leaders, want 1", leaders)
	}
}

func TestFlightGroupRetriesAfterFailure(t *testing.T) {
	g := newFlightGroup()
	boom := errors.New("boom")
	if _, _, err := g.Do("k", func() (*rendered, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err %v, want boom", err)
	}
	v, _, err := g.Do("k", func() (*rendered, error) { return &rendered{body: []byte("ok")}, nil })
	if err != nil || string(v.body) != "ok" {
		t.Fatalf("failure was cached: v=%v err=%v", v, err)
	}
}

func TestLimiterSheds(t *testing.T) {
	m := &metrics{}
	l := newLimiter(1, 1, m)
	ctx := context.Background()
	if err := l.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	// One more fits in the queue; it blocks on the slot, so run it async.
	queued := make(chan error, 1)
	go func() { queued <- l.acquire(ctx) }()
	// Wait until it is actually queued, then the next must shed.
	deadline := time.Now().Add(5 * time.Second)
	for m.queued.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := l.acquire(ctx); !errors.Is(err, errShed) {
		t.Fatalf("third acquire: %v, want errShed", err)
	}
	l.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	l.release()
	if got := m.inFlight.Load(); got != 0 {
		t.Fatalf("inFlight gauge %d after releases", got)
	}
}

func TestLimiterHonorsContext(t *testing.T) {
	m := &metrics{}
	l := newLimiter(1, 1, m)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := l.acquire(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire on cancelled ctx: %v", err)
	}
	l.release()
	// The cancelled waiter must have left the queue: the slot and queue are
	// free again.
	if err := l.acquire(context.Background()); err != nil {
		t.Fatalf("queue leaked after cancelled wait: %v", err)
	}
	l.release()
}
