package platform

import (
	"sync"
	"sync/atomic"
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
	drawHitSample = 64
)

// Draws memoizes the noise draws of one run seed: z(seed, rank, seq), the
// half-normal excess Noise scales by NoiseRel — a pure function of the triple
// and not of the rank count — for runs that overlap: the workers of a series
// sweeping P. Machine.WithDraws states who owns one; TurnDraws is the memo of
// runs that take turns. It is safe for concurrent readers: a rank's row is
// append-only in fixed blocks, each published through an atomic pointer once
// filled, so a hit takes no lock; a miss fills a block under the row's
// TryLock, and a reader that loses that race computes its one draw instead of
// waiting. A block is filled ahead of the reader that misses it, so a memo
// pays off for streams many runs read far past their first block.
type Draws struct {
	seed   int64
	rows   []drawRow
	blocks atomic.Int64 // blocks stored
	direct atomic.Int64
}

type drawRow struct {
	fill   sync.Mutex
	hits   atomic.Int64 // sampled, see drawHitSample
	blocks [drawRowBlocks]atomic.Pointer[[drawBlock]float64]
}

// NewDraws returns an empty memo of the seed's noise streams of ranks [0, ranks)
// — of no more ranks than it can store a block for (a row is 528 bytes).
func NewDraws(seed int64, ranks int) *Draws {
	return &Draws{seed: seed, rows: make([]drawRow, max(0, min(ranks, maxDrawBlocks)))}
}

// DrawStats counts what a memo did: draws stored (whole blocks), lookups
// answered by a block already there (estimated, see drawHitSample), and draws
// computed and not stored (past a bound, or while another reader filled).
type DrawStats struct{ Stored, Hits, Direct int64 }

// Stats returns the memo's counters.
func (d *Draws) Stats() DrawStats {
	s := DrawStats{Stored: d.blocks.Load() * drawBlock, Direct: d.direct.Load()}
	for i := range d.rows {
		s.Hits += d.rows[i].hits.Load() * drawHitSample
	}
	return s
}

// z returns drawZ(d.seed, rank, seq), from the rank's row when it can.
func (d *Draws) z(rank int, seq uint64) float64 {
	if uint(rank) < uint(len(d.rows)) && seq < drawRowBlocks*drawBlock {
		row := &d.rows[rank]
		if b := row.blocks[seq/drawBlock].Load(); b != nil {
			if seq%drawHitSample == 0 {
				row.hits.Add(1)
			}
			return b[seq%drawBlock]
		}
		if b := d.fillBlock(row, rank, seq/drawBlock); b != nil {
			return b[seq%drawBlock]
		}
	}
	d.direct.Add(1)
	return drawZ(d.seed, rank, seq)
}

// fillBlock computes and publishes block bi of the rank's row, or returns nil
// when another reader holds the row or the memo is full.
func (d *Draws) fillBlock(row *drawRow, rank int, bi uint64) *[drawBlock]float64 {
	if !row.fill.TryLock() {
		return nil
	}
	defer row.fill.Unlock()
	if b := row.blocks[bi].Load(); b != nil {
		return b
	}
	if d.blocks.Add(1) > maxDrawBlocks {
		d.blocks.Add(-1)
		return nil
	}
	b := new([drawBlock]float64)
	for k := range b {
		b[k] = drawZ(d.seed, rank, bi*drawBlock+uint64(k))
	}
	row.blocks[bi].Store(b)
	return b
}
