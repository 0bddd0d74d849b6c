package simnet

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestRunContextCancelUnwindsBlockedRanks cancels a deadlocked run and
// checks that RunContext returns promptly with ErrAborted (all ranks are
// blocked in receives that never match, so only the cancellation path can
// end the run before the deadline).
func TestRunContextCancelUnwindsBlockedRanks(t *testing.T) {
	m := defaultFake(4)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := RunContext(ctx, m, func(p *Proc) error {
		p.Recv((p.Rank()+1)%p.Size(), 7) // never sent
		return nil
	}, Options{AckSends: true, Deadline: time.Minute})
	if res != nil || !errors.Is(err, ErrAborted) {
		t.Fatalf("RunContext = (%v, %v), want ErrAborted", res, err)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancellation took %v, teardown did not unwind promptly", elapsed)
	}
}

// TestRunContextAlreadyCancelled checks that a pre-cancelled context aborts
// even a run that would otherwise complete.
func TestRunContextAlreadyCancelled(t *testing.T) {
	m := defaultFake(2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := RunContext(ctx, m, func(p *Proc) error {
		p.Recv((p.Rank()+1)%2, 1) // blocks until cancellation unwinds it
		return nil
	}, Options{AckSends: true, Deadline: time.Minute})
	if !errors.Is(err, ErrAborted) {
		t.Fatalf("err = %v, want ErrAborted", err)
	}
}

// TestRunContextWrapsCancellationCause checks that the abort error carries
// the context's cause in its chain, so callers can dispatch on it with
// errors.Is.
func TestRunContextWrapsCancellationCause(t *testing.T) {
	m := defaultFake(2)
	cause := errors.New("operator pulled the plug")
	ctx, cancel := context.WithCancelCause(context.Background())
	cancel(cause)
	_, err := RunContext(ctx, m, func(p *Proc) error {
		p.Recv((p.Rank()+1)%2, 1)
		return nil
	}, Options{AckSends: true, Deadline: time.Minute})
	if !errors.Is(err, ErrAborted) || !errors.Is(err, cause) {
		t.Fatalf("err = %v, want chain containing ErrAborted and the cause", err)
	}
}

// TestRunContextCompletesNormally checks the context path leaves successful
// runs untouched and produces the same times as Run.
func TestRunContextCompletesNormally(t *testing.T) {
	m := defaultFake(4)
	body := func(p *Proc) error {
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() - 1 + p.Size()) % p.Size()
		r := p.Irecv(prev, 3)
		p.Send(next, 3, 64, nil)
		p.Wait(r)
		return nil
	}
	want, err := Run(m, body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunContext(context.Background(), m, body, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Times {
		if got.Times[i] != want.Times[i] {
			t.Errorf("rank %d: RunContext time %.17g != Run time %.17g", i, got.Times[i], want.Times[i])
		}
	}
}

// TestFailingRankEndsTheRun: a rank that returns an error tears the run
// down at once, so its peer blocked in a receive from it unwinds and the run
// reports the rank's error instead of waiting out the deadline.
func TestFailingRankEndsTheRun(t *testing.T) {
	boom := errors.New("boom")
	for _, engine := range []Engine{EngineAuto, EngineConcurrent} {
		start := time.Now()
		res, err := RunContext(context.Background(), defaultFake(2), func(p *Proc) error {
			if p.Rank() == 0 {
				return boom
			}
			p.Recv(0, 1) // never sent
			return nil
		}, Options{AckSends: true, Engine: engine, Deadline: 3 * time.Second})
		if res != nil || !errors.Is(err, boom) || errors.Is(err, ErrDeadline) {
			t.Fatalf("engine %v: RunContext = (%v, %v), want the rank's error alone", engine, res, err)
		}
		if elapsed := time.Since(start); elapsed >= time.Second {
			t.Fatalf("engine %v: the failed run took %v to return", engine, elapsed)
		}
	}
}
