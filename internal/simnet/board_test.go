package simnet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

// TestSharedFloodBoardRegistry takes boards the way a broadcast does on the
// concurrent engine: rank 0 writes its slot of every call's board, posting
// one message per call, before any other rank takes one — so all the calls
// are open at once — and the other ranks then read call k's slot once call
// k's message has reached them. Two runs go at once. Every read must see its
// own call's value, every call must derive its shared value once, and a
// finished run's registry must be empty.
func TestSharedFloodBoardRegistry(t *testing.T) {
	const p, calls = 6, 50
	o := DefaultOptions()
	o.Engine = EngineConcurrent
	var wg sync.WaitGroup
	for run := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var w *world
			var derived atomic.Int64
			_, err := RunContext(context.Background(), defaultFake(p), func(pr *Proc) error {
				if pr.Rank() != 0 {
					pr.Recv(0, calls) // rank 0 has opened every call
				}
				for k := range calls {
					b := pr.Board()
					want := [2]int{run, k}
					if pr.Rank() == 0 {
						b.Set(0, want)
						for dst := 1; dst < p; dst++ {
							pr.Post(dst, k, 8, nil)
						}
					} else {
						pr.Recv(0, k)
						if got := b.Get(0); got != want {
							return fmt.Errorf("rank %d read %v from call %d's board, want %v", pr.Rank(), got, k, want)
						}
					}
					b.Shared(func() any { return derived.Add(1) })
				}
				if pr.Rank() == 0 {
					w = pr.w
					w.boardMu.Lock()
					open := len(w.boards)
					w.boardMu.Unlock()
					if open != calls {
						t.Errorf("run %d: %d boards open ahead of the readers, want %d", run, open, calls)
					}
					for dst := 1; dst < p; dst++ {
						pr.Post(dst, calls, 8, nil)
					}
				}
				return nil
			}, o)
			if err != nil {
				t.Errorf("run %d: %v", run, err)
				return
			}
			if n := derived.Load(); n != calls {
				t.Errorf("run %d: %d shared values derived for %d calls", run, n, calls)
			}
			if len(w.boards) != 0 {
				t.Errorf("run %d: %d boards left in the registry", run, len(w.boards))
			}
		}()
	}
	wg.Wait()
}

// TestRunMemo holds Proc.Memo to its contract on one rank: two calls with
// one key get one value and build once, a build's error is handed back, and
// the key after maxMemo of them empties the memo, so an old key builds anew.
func TestRunMemo(t *testing.T) {
	_, err := Run(defaultFake(1), func(pr *Proc) error {
		builds := 0
		build := func(v any) func() (any, error) {
			return func() (any, error) { builds++; return v, nil }
		}
		a, _ := pr.Memo("a", build(new(int)))
		b, _ := pr.Memo("a", build(new(int)))
		if a != b || builds != 1 {
			return fmt.Errorf("two calls of one key got %p and %p after %d builds, want one value and one build", a, b, builds)
		}
		if _, err := pr.Memo("bad", func() (any, error) { return nil, errors.New("no") }); err == nil {
			return errors.New("a failed build returned no error")
		}
		for k := 2; k < maxMemo; k++ {
			pr.Memo(k, build(k))
		}
		if n := len(pr.w.memo); n != maxMemo {
			return fmt.Errorf("memo holds %d keys, want %d", n, maxMemo)
		}
		if c, _ := pr.Memo("a", build(new(int))); c != a {
			return errors.New("a held key was built again")
		}
		pr.Memo(maxMemo, build(maxMemo))
		if n := len(pr.w.memo); n != 1 {
			return fmt.Errorf("key %d left %d keys in the memo, want 1", maxMemo+1, n)
		}
		if c, _ := pr.Memo("a", build(new(int))); c == a {
			return errors.New("a dropped key kept its value")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
