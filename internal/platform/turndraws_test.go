package platform

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// sameDraw fails unless c reads Noise(rank, seq) as m computes it, bit for bit.
func sameDraw(t *testing.T, c, m *Machine, rank int, seq uint64) {
	t.Helper()
	if got, want := c.Noise(rank, seq), m.Noise(rank, seq); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Noise(%d, %d) through the memo = %v, computed %v", rank, seq, got, want)
	}
}

// TestTurnDrawsMatchUncached holds a machine reading through a TurnDraws to
// the same machine computing every draw, bit for bit: along whole rows read
// in order twice (so across the head and every level boundary, stored and
// then hit), past a row's end, for a rank the memo has no row for, on
// generated triples read out of order, and once the memo is at its bound.
// The counts are exact; a memo of another seed, or on a noise-free machine,
// is not used, and WithRunSeed and WithDraws drop it.
func TestTurnDrawsMatchUncached(t *testing.T) {
	const ranks, rowCap = 8, turnHead << turnLevels
	m := noisyMachine(t, ranks)
	d := NewTurnDraws(m.RunSeed(), ranks-1, MaxDraws) // the last rank has no row
	c := m.WithTurnDraws(d)
	if c.turn != d {
		t.Fatal("WithTurnDraws did not attach a memo of the machine's seed")
	}
	for pass := 0; pass < 2; pass++ { // the second pass hits
		for rank := 0; rank < ranks; rank++ {
			for seq := uint64(0); seq < rowCap+2; seq++ {
				sameDraw(t, c, m, rank, seq)
			}
		}
	}
	rows := int64(ranks - 1)
	if s, want := d.Stats(), (DrawStats{Stored: rows * rowCap, Hits: rows * rowCap, Direct: rows * 2 * 2}); s != want {
		t.Fatalf("stats %+v after two passes over whole rows, want %+v", s, want)
	}
	rng := rand.New(rand.NewSource(33))
	for i := 0; i < 2000; i++ {
		sameDraw(t, c, m, rng.Intn(ranks), uint64(rng.Int63n(2*rowCap)))
	}
	sameDraw(t, c, m, 0, math.MaxUint64)

	// Out of order, a fresh memo stores nothing: a row holds its stream from
	// seq 0 without gaps.
	fresh := NewTurnDraws(m.RunSeed(), ranks, MaxDraws)
	for _, seq := range []uint64{5, 1, turnHead, math.MaxUint64} {
		sameDraw(t, m.WithTurnDraws(fresh), m, 3, seq)
	}
	if s := fresh.Stats(); s != (DrawStats{Direct: 4}) {
		t.Errorf("stats %+v after reads out of order, want four direct", s)
	}

	// At the bound: four heads and room for one level (and its table) and
	// five draws more. Rank 0 grows, rank 1 may not, and the draws past
	// either row's end are still the draws.
	tight := NewTurnDraws(m.RunSeed(), 4, 4*turnHead+turnHead+turnTable+5)
	c = m.WithTurnDraws(tight)
	for pass := 0; pass < 2; pass++ {
		for rank := 0; rank < 2; rank++ {
			for seq := uint64(0); seq < 4*turnHead; seq++ {
				sameDraw(t, c, m, rank, seq)
			}
		}
	}
	if s, want := tight.Stats(), (DrawStats{Stored: 3 * turnHead, Hits: 3 * turnHead, Direct: 2*(2*turnHead) + 2*(3*turnHead)}); s != want {
		t.Errorf("stats %+v at the bound, want %+v", s, want)
	}
	if wide := NewTurnDraws(1, 1<<30, 64*turnHead); len(wide.rows) != 64 {
		t.Errorf("a memo of 1<<30 ranks bound at 64 heads has %d rows", len(wide.rows))
	}
	if most := NewTurnDraws(1, 8, math.MaxInt); most.room.Load() != MaxDraws-8*turnHead {
		t.Errorf("a memo asked for any number of draws may grow by %d, want MaxDraws less its heads", most.room.Load())
	}
	if none := NewTurnDraws(1, 8, turnHead-1); len(none.rows) != 0 {
		t.Errorf("a memo bound below one head has %d rows", len(none.rows))
	}

	flat, err := FlatClusterMachine(4)
	if err != nil {
		t.Fatal(err)
	}
	for name, o := range map[string]*Machine{
		"other seed":  m.WithRunSeed(m.RunSeed() + 1).WithTurnDraws(d),
		"noise-free":  flat.WithTurnDraws(NewTurnDraws(flat.RunSeed(), 4, MaxDraws)),
		"nil memo":    c.WithTurnDraws(nil),
		"WithRunSeed": c.WithRunSeed(m.RunSeed()),
		"WithDraws":   c.WithDraws(NewDraws(m.RunSeed(), ranks)),
	} {
		if o.turn != nil {
			t.Errorf("%s: machine reads through a TurnDraws", name)
		}
	}
	if c.WithTurnDraws(d).draws != nil || m.WithDraws(NewDraws(m.RunSeed(), ranks)).WithTurnDraws(d).draws != nil {
		t.Error("WithTurnDraws kept a Draws")
	}
}

// TestTurnDrawsStayUnderBound fills a memo far past its bound and holds what
// it allocated, from its construction on, to the bound's draws, its row
// headers and the memo itself. TotalAlloc counts every goroutine's
// allocations, so the test fills several fresh memos and bounds the least.
func TestTurnDrawsStayUnderBound(t *testing.T) {
	const ranks, most, perRow, fills = 64, 4096, 2000, 5
	m := noisyMachine(t, ranks)
	least := ^uint64(0)
	for i := 0; i < fills; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		d := NewTurnDraws(m.RunSeed(), ranks, most)
		c := m.WithTurnDraws(d)
		for rank := 0; rank < ranks; rank++ {
			for seq := uint64(0); seq < perRow; seq++ {
				c.Noise(rank, seq)
			}
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
		s := d.Stats()
		if s.Stored > most || s.Stored+s.Direct != ranks*perRow {
			t.Errorf("stats %+v: want at most %d stored and %d computed", s, most, ranks*perRow)
		}
	}
	const limit = 8*most + 32*ranks + 1024 // draws, row headers, the memo and the machine copy
	if least > limit {
		t.Errorf("the cheapest of %d fills of the memo allocated %d bytes, want at most %d", fills, least, limit)
	}
}

// TestSharedTurnDrawsRows has goroutines write the rows of their own ranks of
// one memo at once, as the workers of a split walk do, for two runs one after
// the other. Every value is the computed one and every count exact; under
// -race it is the check that the rows of different ranks share nothing the
// workers write.
func TestSharedTurnDrawsRows(t *testing.T) {
	const ranks, workers, perRow = 64, 4, 3*turnHead + 5
	m := noisyMachine(t, ranks)
	d := NewTurnDraws(m.RunSeed(), ranks, MaxDraws)
	c := m.WithTurnDraws(d)
	for run := 0; run < 2; run++ {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for seq := uint64(0); seq < perRow; seq++ {
					for rank := w; rank < ranks; rank += workers {
						if got, want := c.Noise(rank, seq), m.Noise(rank, seq); math.Float64bits(got) != math.Float64bits(want) {
							t.Errorf("worker %d: Noise(%d, %d) = %v, computed %v", w, rank, seq, got, want)
							return
						}
					}
				}
			}(w)
		}
		wg.Wait()
	}
	if s, want := d.Stats(), (DrawStats{Stored: ranks * perRow, Hits: ranks * perRow}); s != want {
		t.Errorf("stats %+v, want %+v", s, want)
	}
}
