package platform

import (
	"sync/atomic"

	"hbsp/internal/loggp"
)

// MaxDraws is the most draws a memo, a Draws or a TurnDraws, stores (32 MiB).
const MaxDraws = 4 << 20

// Bounds of a memo; past any a draw is computed and not stored. The paper's
// longest stream is 18,876 draws (pairwise benchmark, P = 144), 2.6 Mi stored.
const (
	drawBlock     = 512                  // draws a miss computes and publishes at once (4 KiB)
	drawRowBlocks = 64                   // blocks a rank: seq < 32 Ki
	maxDrawBlocks = MaxDraws / drawBlock // blocks a memo
	// drawHitSample is the stride of hit counting: an atomic add per hit cost a
	// third of what the memo saves (sweep workers write the same rows), so a
	// hit counts only at a seq that is a multiple of it and Stats scales back;
	// streams being contiguous, that is off by less than the stride a stream.
	// It is a window's length, so a stream counts a hit where it fetches a
	// window.
	drawHitSample = loggp.WindowLen
)

// Draws memoizes the noise draws of one run seed: z(seed, rank, seq), the
// half-normal excess Noise scales by NoiseRel — a pure function of the triple
// and not of the rank count — for runs that overlap: the workers of a series
// sweeping P. Machine.WithDraws states who owns one; TurnDraws is the memo of
// runs that take turns. It is safe for concurrent readers: a rank's row is
// append-only in fixed blocks, each published through an atomic pointer once
// filled, so a hit takes no lock; a reader that misses fills a block of its
// own and publishes it by compare-and-swap, and a reader that loses that race
// reads the winner's block, so a fill duplicates at most one block per reader
// and no reader computes draws one at a time while another fills. A block is
// filled ahead of the reader that misses it, so a memo pays off for streams
// many runs read far past their first block. A run's kernel reads it through
// windows (Draw): aligned 64-draw views of a published block, which a rank
// reads with no call until its stream leaves them.
type Draws struct {
	seed   int64
	rows   []drawRow
	blocks atomic.Int64 // blocks stored, or reserved by a fill under way
	direct atomic.Int64
}

type drawRow struct {
	hits   atomic.Int64 // sampled, see drawHitSample
	blocks [drawRowBlocks]atomic.Pointer[[drawBlock]float64]
}

// NewDraws returns an empty memo of the seed's noise streams of ranks [0, ranks)
// — of no more ranks than it can store a block for (a row is 520 bytes).
func NewDraws(seed int64, ranks int) *Draws {
	return &Draws{seed: seed, rows: make([]drawRow, max(0, min(ranks, maxDrawBlocks)))}
}

// DrawStats counts what a memo did: draws stored, lookups answered by stored
// draws, and draws computed and not stored (past a bound). A Draws stores
// whole blocks and estimates its hits (drawHitSample); a TurnDraws counts the
// draws each window it hands out holds (TurnDraws.Draw).
type DrawStats struct{ Stored, Hits, Direct int64 }

// Stats returns the memo's counters.
func (d *Draws) Stats() DrawStats {
	s := DrawStats{Stored: d.blocks.Load() * drawBlock, Direct: d.direct.Load()}
	for i := range d.rows {
		s.Hits += d.rows[i].hits.Load() * drawHitSample
	}
	return s
}

// Draw returns drawZ(d.seed, rank, seq), from the rank's row when it can,
// and then the aligned window of the stored block that holds it, all 64 of
// its draws stored (loggp.Stream): the reader takes the window's other draws
// from it without a call. A lookup at a multiple of drawHitSample that a
// stored block answers counts a hit; windows being drawHitSample long and
// read in order, a stream fetches its window at every such seq, so the count
// is the same as when every lookup was a call.
func (d *Draws) Draw(rank int, seq uint64) (z float64, w *[loggp.WindowLen]float64, end uint64) {
	if uint(rank) < uint(len(d.rows)) && seq < drawRowBlocks*drawBlock {
		row := &d.rows[rank]
		slot := &row.blocks[seq/drawBlock]
		b := slot.Load()
		if b != nil {
			if seq%drawHitSample == 0 {
				row.hits.Add(1)
			}
		} else {
			b = d.fillBlock(slot, rank, seq/drawBlock)
		}
		if b != nil {
			k := seq % drawBlock
			lo := k &^ (loggp.WindowLen - 1)
			return b[k], (*[loggp.WindowLen]float64)(b[lo : lo+loggp.WindowLen]), seq&^(loggp.WindowLen-1) + loggp.WindowLen
		}
	}
	d.direct.Add(1)
	return drawZ(d.seed, rank, seq), nil, 0
}

// fillHook, when set, runs in fillBlock between computing a block and
// publishing it; a test holds a fill there.
var fillHook func()

// fillBlock computes block bi of the rank's row and publishes it in slot,
// unless another reader published one first, and returns the published block;
// nil when the memo is full.
func (d *Draws) fillBlock(slot *atomic.Pointer[[drawBlock]float64], rank int, bi uint64) *[drawBlock]float64 {
	if d.blocks.Add(1) > maxDrawBlocks {
		d.blocks.Add(-1)
		return nil
	}
	b := new([drawBlock]float64)
	for k := range b {
		b[k] = drawZ(d.seed, rank, bi*drawBlock+uint64(k))
	}
	if fillHook != nil {
		fillHook()
	}
	if slot.CompareAndSwap(nil, b) {
		return b
	}
	d.blocks.Add(-1)
	return slot.Load()
}
