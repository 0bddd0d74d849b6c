package platform

import (
	"math/bits"
	"sync/atomic"

	"hbsp/internal/loggp"
)

// Rows of a TurnDraws: a head carved from the memo's one slab, then levels,
// each as long as the row before it. Every aligned window of a row lies in
// one array: the head is one window, and each level starts at a multiple of
// its length, which is a whole number of windows.
const (
	// turnHead is the head of a rank's row, its first window: an allreduce
	// point at P = 128 draws 14 a rank.
	turnHead = loggp.WindowLen
	// turnLevels is how often a row grows past its head: seq < 32 Ki, as in
	// a Draws row.
	turnLevels = 9
	// turnTable is what a row's level table costs against the bound, in
	// draws (its nine slice headers).
	turnTable = turnLevels * 3
)

// TurnDraws memoizes the noise draws of one run seed, z(seed, rank, seq), for
// runs that take turns: each run starts after the one before it has returned.
// Machine.WithTurnDraws states who owns one. It stores write-through: the run
// that computes a rank's next draw stores it in the rank's row, so a row holds
// its rank's stream in order from seq 0 and the first run pays one store a
// draw, nothing ahead of it. Later runs read what a row stores through
// windows (Draw), inline in their ranks' states. A rank's draws are read where
// its state advances, so while a run lasts a row has one reader, whether the
// run's ranks are walked by one goroutine or split over several; rows are
// plain memory, and the workers of a split walk write the rows of their ranks
// at once.
//
// Draws is the memo of runs that overlap. TurnDraws is a type of its own
// because its rows are read and counted without an atomic load: a row shared
// by overlapping runs needs a published fill, which costs a P-sweep series
// more per hit than its blocks do.
type TurnDraws struct {
	seed int64
	slab []float64 // the heads of the rows, row after row
	rows []turnRow
	room atomic.Int64 // draws the rows may still grow by; split walkers grow rows at once
}

type turnRow struct {
	n    uint32 // draws stored
	full bool   // the row may not grow: past its last level, or the memo at its bound
	// hits counts the draws of the windows the row handed out, direct the
	// draws computed and not stored.
	hits, direct int64
	// levels holds the row past its head: level k holds seqs
	// [turnHead<<k, turnHead<<(k+1)).
	levels *[turnLevels][]float64
}

// NewTurnDraws returns an empty memo of the seed's noise streams of ranks [0,
// ranks) that stores at most most draws (MaxDraws when most is larger). The
// rows' heads come out of that up front, so a memo has rows for at most
// most/64 ranks; a rank without one computes its draws, uncounted.
func NewTurnDraws(seed int64, ranks, most int) *TurnDraws {
	most = max(0, min(most, MaxDraws))
	rows := max(0, min(ranks, most/turnHead))
	d := &TurnDraws{seed: seed, slab: make([]float64, rows*turnHead), rows: make([]turnRow, rows)}
	d.room.Store(int64(most - rows*turnHead))
	return d
}

// Stats returns the memo's counters, exact, summed over its rows. The runs
// that read through it must have returned.
func (d *TurnDraws) Stats() DrawStats {
	var s DrawStats
	for i := range d.rows {
		r := &d.rows[i]
		s.Stored += int64(r.n)
		s.Hits += r.hits
		s.Direct += r.direct
	}
	return s
}

// Draw returns drawZ(d.seed, rank, seq) (loggp.Stream): from the rank's row
// when it stores seq, with the aligned window that holds it, which ends where
// the row's stored draws or the window do; else computed, and stored when it
// is the row's next draw, with no window. Hits counts the draws each window
// hands out, from seq to its end: the draws its reader reads when it reads
// the window to its end, as a later run reads the prefix an earlier one
// stored, and more than it reads otherwise.
func (d *TurnDraws) Draw(rank int, seq uint64) (z float64, w *[loggp.WindowLen]float64, end uint64) {
	if uint(rank) >= uint(len(d.rows)) {
		return drawZ(d.seed, rank, seq), nil, 0
	}
	row := &d.rows[rank]
	if n := uint64(row.n); seq < n {
		lo := seq &^ (turnHead - 1)
		if seq < turnHead {
			w = (*[turnHead]float64)(d.slab[rank*turnHead:])
		} else {
			k := bits.Len64(seq/turnHead) - 1
			w = (*[turnHead]float64)(row.levels[k][lo-turnHead<<k:])
		}
		end = min(n, lo+turnHead)
		row.hits += int64(end - seq)
		return w[seq%turnHead], w, end
	}
	z = drawZ(d.seed, rank, seq)
	if seq == uint64(row.n) && !row.full {
		if seq < turnHead {
			d.slab[rank*turnHead+int(seq)] = z
			row.n++
			return z, nil, 0
		}
		if level, base := d.grow(row, seq); level != nil {
			level[seq-base] = z
			row.n++
			return z, nil, 0
		}
		row.full = true
	}
	row.direct++
	return z, nil, 0
}

// grow returns the level of the row that keeps seq, its next draw past its
// head, and the seq the level's first element keeps; it allocates the level
// when seq starts it. It returns nil past a row's last level and when the
// memo has no room for the level.
func (d *TurnDraws) grow(row *turnRow, seq uint64) ([]float64, uint64) {
	k := bits.Len64(seq/turnHead) - 1
	if k >= turnLevels {
		return nil, 0
	}
	base := uint64(turnHead) << k
	if seq == base {
		cost := int64(base)
		if row.levels == nil {
			cost += turnTable
		}
		if d.room.Add(-cost) < 0 {
			d.room.Add(cost)
			return nil, 0
		}
		if row.levels == nil {
			row.levels = new([turnLevels][]float64)
		}
		row.levels[k] = make([]float64, base)
	}
	return row.levels[k], base
}
