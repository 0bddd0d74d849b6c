package trace

import (
	"slices"
	"testing"
)

var poolTimes = []float64{1, 2, 3, 4}

func fillRun(r *Recorder, procs, events int) {
	r.BeginRun(Meta{Procs: procs})
	for rank := 0; rank < procs; rank++ {
		lane := r.LaneOf(rank)
		for e := 0; e < events; e++ {
			lane.Append(Event{Kind: KindCompute, Peer: -1, SendSeq: -1, T0: float64(e), T1: float64(e) + 1})
		}
	}
	r.EndRun(poolTimes[:procs], 2, int64(events), 0, nil, true)
}

// TestRecorderLaneReuse pins the lane pool: while no Trace view has been
// exported, BeginRun has the lanes refill the previous run's chunks
// (steady-state recording allocates nothing), and once Trace has shared the
// chunk lists, the next run gets fresh storage — without corrupting the
// exported view. A 3-event chunk puts each lane's 64 events in 22 chunks.
func TestRecorderLaneReuse(t *testing.T) {
	rec := NewRecorder()
	rec.SetRAMChunk(3)
	fillRun(rec, 2, 64)
	if n := len(rec.LaneOf(0).chunks); n != 22 {
		t.Fatalf("lane 0 holds %d chunks, want 22", n)
	}

	// Unexported chunks are reused: same column backing arrays, refilled.
	arrays := func() [2]*float64 {
		chunks := rec.LaneOf(0).chunks
		return [2]*float64{&chunks[0].T0[0], &chunks[len(chunks)-1].T0[0]}
	}
	before := arrays()
	fillRun(rec, 2, 64)
	if after := arrays(); before != after {
		t.Error("unexported chunks were reallocated instead of reused")
	}

	// Steady-state recording on warmed lanes does not grow lane storage:
	// the only per-run allocation left is EndRun's copy of the times slice.
	allocs := testing.AllocsPerRun(10, func() { fillRun(rec, 2, 64) })
	if allocs > 1 {
		t.Errorf("steady-state traced run allocated %.0f times in the recorder, want <= 1", allocs)
	}

	// An exported view survives later runs untouched.
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	wantLen := tr.LaneLen(0)
	want := tr.LaneEvents(0)
	fillRun(rec, 2, 8)
	if tr.LaneLen(0) != wantLen || !slices.Equal(tr.LaneEvents(0), want) {
		t.Error("exported trace was mutated by a later run")
	}
	// And the post-export run produced its own, correct chunks.
	tr2, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr2.LaneLen(0) != 8 || len(tr2.lanes[0]) != 3 || tr2.LaneEvents(0)[7].T1 != 8 {
		t.Errorf("post-export run recorded %d events in %d chunks, want 8 in 3", tr2.LaneLen(0), len(tr2.lanes[0]))
	}

	// A different rank count abandons the pool cleanly.
	fillRun(rec, 3, 4)
	tr3, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr3.NumLanes() != 3 || tr3.LaneLen(2) != 4 || len(tr3.lanes[2]) != 2 {
		t.Errorf("resized run recorded %d lanes / %d events", tr3.NumLanes(), tr3.LaneLen(2))
	}
}
