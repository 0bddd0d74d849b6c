package simnet

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestSharedMailboxFIFOPerSourceTag drives the indexed mailbox directly:
// several producer goroutines deliver interleaved streams on distinct (src,
// tag) pairs — enough of them that the index doubles several times while
// producers deliver — and a consumer takes them in an adversarial order.
// Every stream must come out in FIFO order regardless of scheduling.
func TestSharedMailboxFIFOPerSourceTag(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(&cancelled)
	const (
		sources  = 16
		tags     = 8
		perQueue = 50
	)
	var wg sync.WaitGroup
	for src := 0; src < sources; src++ {
		wg.Add(1)
		go func(src int) {
			defer wg.Done()
			// Interleave the tags so deliveries from one source alternate
			// between queues.
			for seq := 0; seq < perQueue; seq++ {
				for tag := 0; tag < tags; tag++ {
					m := msgPool.Get().(*message)
					*m = message{src: src, tag: tag, payload: seq}
					mb.deliver(m)
				}
			}
		}(src)
	}
	// Consume queue by queue, in reverse creation order, concurrently with the
	// producers; take must block until the next FIFO element exists.
	for src := sources - 1; src >= 0; src-- {
		for tag := tags - 1; tag >= 0; tag-- {
			for seq := 0; seq < perQueue; seq++ {
				m := mb.take(src, tag)
				if m.src != src || m.tag != tag {
					t.Fatalf("take(%d,%d) returned message from (%d,%d)", src, tag, m.src, m.tag)
				}
				if m.payload != seq {
					t.Fatalf("queue (%d,%d): got seq %v, want %d (FIFO violated)", src, tag, m.payload, seq)
				}
				releaseMessage(m)
			}
		}
	}
	wg.Wait()
	if mb.used != sources*tags || len(mb.slots) != 2*sources*tags {
		t.Fatalf("index holds %d pairs in %d slots, want %d in %d", mb.used, len(mb.slots), sources*tags, 2*sources*tags)
	}
}

// TestPoolReuseAllToAll stresses the message and request pools: repeated
// all-to-all rounds where every payload is unique, so any premature recycling
// (a message or request handed out while still referenced) shows up as a
// wrong payload — and as a race under -race.
func TestPoolReuseAllToAll(t *testing.T) {
	const rounds = 20
	m := defaultFake(8)
	_, err := Run(m, func(p *Proc) error {
		n := p.Size()
		for round := 0; round < rounds; round++ {
			reqs := make([]*Request, 0, n-1)
			for d := 1; d < n; d++ {
				reqs = append(reqs, p.Irecv((p.Rank()-d+n)%n, round))
			}
			for d := 1; d < n; d++ {
				dst := (p.Rank() + d) % n
				p.Post(dst, round, 8, [2]int{p.Rank(), round})
			}
			for i, r := range reqs {
				src := (p.Rank() - (i + 1) + n) % n
				got, ok := p.Wait(r).([2]int)
				if !ok || got != [2]int{src, round} {
					return fmt.Errorf("rank %d round %d: payload %v, want [%d %d]", p.Rank(), round, got, src, round)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRequestRecycledAfterWait pins the new Request lifetime contract: Wait
// recycles the request, so waiting twice must panic loudly instead of
// corrupting the freelist.
func TestRequestRecycledAfterWait(t *testing.T) {
	m := defaultFake(2)
	_, err := Run(m, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Post(1, 0, 0, nil)
		case 1:
			r := p.Irecv(0, 0)
			p.Wait(r)
			panicked := func() (panicked bool) {
				defer func() { panicked = recover() != nil }()
				p.Wait(r)
				return false
			}()
			if !panicked {
				return errors.New("second Wait on a recycled request did not panic")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestQueueCompactsUnderStandingBacklog pins the memory behaviour of one
// FIFO: a producer that stays permanently ahead of the consumer (the queue
// never fully drains) must not grow the backing slice with every message —
// the consumed prefix is compacted away, keeping the queue O(backlog).
func TestQueueCompactsUnderStandingBacklog(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(&cancelled)
	const messages = 100000
	mb.deliver(&message{src: 0, tag: 0, payload: -1}) // standing backlog of 1
	for seq := 0; seq < messages; seq++ {
		mb.deliver(&message{src: 0, tag: 0, payload: seq})
		if m := mb.take(0, 0); m == nil {
			t.Fatal("take returned nil")
		}
	}
	q := mb.queue(0, 0)
	if cap(q.msgs) > 256 {
		t.Fatalf("queue retained %d slots for a backlog of 1 message", cap(q.msgs))
	}
}

// TestDeadlineTearsDownGoroutines verifies the ErrDeadline path no longer
// leaks: the watchdog cancels the run, ranks blocked in receives unwind, and
// the goroutine count returns to its pre-run level.
func TestDeadlineTearsDownGoroutines(t *testing.T) {
	m := defaultFake(8)
	before := runtime.NumGoroutine()
	_, err := Run(m, func(p *Proc) error {
		if p.Rank() == 0 {
			return nil // rank 0 finishes; everyone else deadlocks
		}
		p.Recv(0, 99) // never sent
		return nil
	}, Options{AckSends: true, Deadline: 30 * time.Millisecond})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// The rank goroutines have been woken and unwound by the time Run returns;
	// allow a little slack for the watchdog helper itself to exit.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		t.Fatalf("goroutines leaked after deadline: %d before, %d after", before, got)
	}
}

// TestCancelAbortsLateReceivers verifies the cancel flag is honoured by ranks
// that reach a receive only after the deadline fired (they abort on entry to
// take instead of blocking forever).
func TestCancelAbortsLateReceivers(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(&cancelled)
	cancelled.Store(true)
	defer func() {
		if _, ok := recover().(cancelPanic); !ok {
			t.Error("take on a cancelled mailbox should panic with cancelPanic")
		}
	}()
	mb.take(0, 0)
}

// deliverStreams delivers n messages on each (src, tag) pair, interleaved
// across the pairs; the payload is the message's sequence number.
func deliverStreams(mb *mailbox, n int, pairs ...mbKey) {
	for seq := 0; seq < n; seq++ {
		for _, k := range pairs {
			mb.deliver(&message{src: k.src, tag: k.tag, payload: seq})
		}
	}
}

// takeStreams takes the pairs' streams back, in the given order, and fails
// unless each comes out FIFO.
func takeStreams(t *testing.T, mb *mailbox, n int, pairs ...mbKey) {
	t.Helper()
	for _, k := range pairs {
		for seq := 0; seq < n; seq++ {
			if got := mb.take(k.src, k.tag).payload; got != seq {
				t.Fatalf("pair %+v: got %v, want %d (FIFO violated or stream aliased)", k, got, seq)
			}
		}
	}
}

// TestMailboxWideTagSpan keeps a far tag beside a near one — the one-sided,
// count-exchange and schedule tag ranges of one run are 2^24 apart — plus a
// negative tag: every stream stays its own.
func TestMailboxWideTagSpan(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(&cancelled)
	pairs := []mbKey{{1, 5}, {2, 9}, {0, 5 + 16384}, {1, -5}}
	deliverStreams(mb, 10, pairs...)
	takeStreams(t, mb, 10, pairs[2], pairs[3], pairs[0], pairs[1])
}

// TestMailboxTagsBelowAndAbove delivers tags below and above the first one
// seen, from two sources.
func TestMailboxTagsBelowAndAbove(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(&cancelled)
	pairs := []mbKey{{0, 100}, {1, 40}, {0, 160}, {1, 100}}
	deliverStreams(mb, 5, pairs...)
	takeStreams(t, mb, 5, pairs[1], pairs[0], pairs[3], pairs[2])
}

// TestMailboxHugeRankCount matches the highest rank of a 16,385-rank world
// beside rank 0 on the same tag.
func TestMailboxHugeRankCount(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(&cancelled)
	pairs := []mbKey{{16384, 0}, {3, 0}, {0, 0}}
	deliverStreams(mb, 4, pairs...)
	takeStreams(t, mb, 4, pairs...)
}

// TestMailboxHugeTagSpanNoAliasing pins that a tag 2^62 away from another
// never aliases onto it.
func TestMailboxHugeTagSpanNoAliasing(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(&cancelled)
	pairs := []mbKey{{0, 0}, {0, 1 << 62}}
	deliverStreams(mb, 3, pairs...)
	takeStreams(t, mb, 3, pairs[1], pairs[0])
}

// TestMailboxTableFollowsPairs pins the index's size to the pairs a mailbox
// has seen, not to the world it lives in: three pairs from the far ends of a
// 2^20-rank world, on tags 2^24 apart, keep a table of at most 8 slots.
func TestMailboxTableFollowsPairs(t *testing.T) {
	var cancelled atomic.Bool
	mb := newMailbox(&cancelled)
	pairs := []mbKey{{1<<20 - 1, 1 << 24}, {0, 0}, {1 << 19, 1<<24 + 64}}
	deliverStreams(mb, 2, pairs...)
	if len(mb.slots) > 8 {
		t.Fatalf("three pairs occupy a table of %d slots, want at most 8", len(mb.slots))
	}
	takeStreams(t, mb, 2, pairs...)
}
