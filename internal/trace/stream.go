package trace

import "container/heap"

// This file holds the ordered merged-event iterator: a k-way merge of the
// per-lane streams by (T0, T1, rank) that yields exactly the sequence
// Trace.Events returns, without ever materializing it. Lanes are consumed
// chunk by chunk, so iterating a spilled P=65536 run holds one decoded
// chunk per lane — the same bound the spilling recorder ran under.
//
// Per-lane event order is each rank's own clock order, which is sorted by
// (T0, T1) except for one known adjacency: a fail-stop recovery interval is
// recorded immediately before the send whose clock advance crossed the fail
// time, and starts after that send's T0. A two-slot reorder window on each
// lane cursor restores sortedness (the inversion is always between exactly
// those two neighbours), after which the heap merge with rank as the final
// tie-break reproduces the stable merged order bit-for-bit.

// chunkPull streams one lane as consecutive column chunks; it returns
// (nil, nil) when the lane is exhausted. The returned columns are valid
// until the next pull.
type chunkPull func() (*Cols, error)

// oneChunk is the stream of a lane held whole.
func oneChunk(lane func() (*Cols, error)) chunkPull {
	done := false
	return func() (*Cols, error) {
		if done {
			return nil, nil
		}
		done = true
		return lane()
	}
}

// chunkPullOf streams rank's lane: a spill's chunk by chunk, decoding the
// columns in want; any other source's through LaneCols, as one chunk.
func chunkPullOf(src Source, rank int, want colSet) chunkPull {
	if sp, ok := src.(*Spill); ok {
		return sp.laneChunks(rank, want)
	}
	return oneChunk(func() (*Cols, error) { return src.LaneCols(rank) })
}

// eachChunk streams rank's lane through fn, chunk by chunk.
func eachChunk(src Source, rank int, want colSet, fn func(c *Cols)) error {
	pull := chunkPullOf(src, rank, want)
	for {
		c, err := pull()
		if c == nil || err != nil {
			return err
		}
		fn(c)
	}
}

// eachLane streams every lane of src through fn in rank-then-chunk order,
// the whole-run passes' accumulation order, and returns the first read error
// in that order; a spill decodes ahead of fn on a goroutine (readAhead).
func eachLane(src Source, want colSet, fn func(rank int, c *Cols)) error {
	if sp, ok := src.(*Spill); ok {
		return sp.readAhead(want, fn)
	}
	for rank := 0; rank < src.NumLanes(); rank++ {
		if err := eachChunk(src, rank, want, func(c *Cols) { fn(rank, c) }); err != nil {
			return err
		}
	}
	return nil
}

// windowOf returns the random read of the critical-path walk: the chunk
// holding event i of rank's lane, with at least the columns in want, and the
// lane index of its first event — through a spill's chunk cache, or the
// whole lane through LaneCols.
func windowOf(src Source) func(rank, i int, want colSet) (*Cols, int, error) {
	if sp, ok := src.(*Spill); ok {
		return sp.laneWindow
	}
	return func(rank, _ int, _ colSet) (*Cols, int, error) {
		c, err := src.LaneCols(rank)
		return c, 0, err
	}
}

// eventBefore is the strict merge order: (T0, T1, rank).
func eventBefore(a, b *Event) bool {
	if a.T0 != b.T0 {
		return a.T0 < b.T0
	}
	if a.T1 != b.T1 {
		return a.T1 < b.T1
	}
	return a.Rank < b.Rank
}

// laneCursor walks one lane in repaired (sorted) order through a two-slot
// reorder window.
type laneCursor struct {
	rank   int32
	pull   chunkPull
	c      *Cols
	i      int
	a, b   Event
	na, nb bool
}

// rawNext yields the next event in recorded lane order.
func (lc *laneCursor) rawNext() (Event, bool, error) {
	for lc.c == nil || lc.i >= lc.c.Len() {
		if lc.pull == nil {
			return Event{}, false, nil
		}
		c, err := lc.pull()
		if err != nil {
			return Event{}, false, err
		}
		if c == nil {
			lc.pull = nil
			return Event{}, false, nil
		}
		lc.c, lc.i = c, 0
	}
	ev := lc.c.Event(lc.i, lc.rank)
	lc.i++
	return ev, true, nil
}

// refill loads the window after its head was consumed and repairs an
// adjacent inversion. The swap fires only on strictly out-of-order
// neighbours, so equal-keyed events keep their recorded order (stability).
func (lc *laneCursor) refill() error {
	if !lc.na && lc.nb {
		lc.a, lc.na, lc.nb = lc.b, true, false
	}
	if !lc.na {
		ev, ok, err := lc.rawNext()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		lc.a, lc.na = ev, true
	}
	if !lc.nb {
		ev, ok, err := lc.rawNext()
		if err != nil {
			return err
		}
		if ok {
			lc.b, lc.nb = ev, true
		}
	}
	if lc.na && lc.nb && eventBefore(&lc.b, &lc.a) {
		lc.a, lc.b = lc.b, lc.a
	}
	return nil
}

// cursorHeap is a min-heap of lane cursors keyed by their head event.
type cursorHeap []*laneCursor

func (h cursorHeap) Len() int            { return len(h) }
func (h cursorHeap) Less(i, j int) bool  { return eventBefore(&h[i].a, &h[j].a) }
func (h cursorHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *cursorHeap) Push(x interface{}) { *h = append(*h, x.(*laneCursor)) }
func (h *cursorHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return x
}

// Iter streams a source's events in the deterministic merged order — the
// order Trace.Events materializes — one event at a time.
type Iter struct {
	cs  cursorHeap
	err error
}

// NewIter builds the merged iterator over src.
func NewIter(src Source) (*Iter, error) {
	it := &Iter{}
	for rank := 0; rank < src.NumLanes(); rank++ {
		lc := &laneCursor{rank: int32(rank), pull: chunkPullOf(src, rank, colsAll)}
		if err := lc.refill(); err != nil {
			return nil, err
		}
		if lc.na {
			it.cs = append(it.cs, lc)
		}
	}
	heap.Init(&it.cs)
	return it, nil
}

// Next yields the next event; ok is false at the end of the stream or on a
// read error (check Err).
func (it *Iter) Next() (ev Event, ok bool) {
	if it.err != nil || len(it.cs) == 0 {
		return Event{}, false
	}
	lc := it.cs[0]
	ev = lc.a
	lc.na = false
	if err := lc.refill(); err != nil {
		it.err = err
		return Event{}, false
	}
	if lc.na {
		heap.Fix(&it.cs, 0)
	} else {
		heap.Pop(&it.cs)
	}
	return ev, true
}

// Err returns the first lane read error, nil on clean streams.
func (it *Iter) Err() error { return it.err }
