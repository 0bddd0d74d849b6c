package loggp

import (
	"math"
	"testing"
	"unsafe"

	"hbsp/internal/fault"
	"hbsp/internal/trace"
)

// The fixture is a three-rank, two-NIC machine given by explicit rows with
// deliberately asymmetric entries: ranks 0 and 1 share NIC 0, rank 2 sits on
// NIC 1. Every parameter is a small binary fraction, so the expected values
// below — computed by hand from the model's definition in the package
// comment, not by running the kernel — are exact in float64.
var (
	rowLat  = [3][3]float64{{0.5, 3, 10}, {4, 0.5, 12}, {30, 28, 0.5}}
	rowGap  = [3][3]float64{{0.25, 1, 2}, {1, 0.25, 2}, {4, 4, 0.25}}
	rowBeta = [3][3]float64{{0.125, 0.25, 0.5}, {0.25, 0.125, 0.5}, {1, 1, 0.125}}
	rowOvh  = [3][3]float64{{0.25, 0.5, 1}, {0.5, 0.25, 1}, {2, 2, 0.25}}
	rowNIC  = [3]int{0, 0, 1}
)

func pairOf(i, j int) *Pair {
	return &Pair{Lat: rowLat[i][j], Gap: rowGap[i][j], Beta: rowBeta[i][j], Ovh: rowOvh[i][j],
		Ret: rowLat[j][i], SameNIC: rowNIC[i] == rowNIC[j]}
}

// seqNoise is a noise stream whose seq-th factor is 1 + seq/8 on every rank;
// it counts its draws.
type seqNoise struct{ draws int }

func (n *seqNoise) Noise(_ int, seq uint64) float64 {
	n.draws++
	return 1 + float64(seq)/8
}

// flat is the noise-free stream.
type flat struct{}

func (flat) Noise(int, uint64) float64 { return 1 }

func compile(t *testing.T, plan *fault.Plan) *fault.Runtime {
	t.Helper()
	rt, err := fault.Compile(plan, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestSendAgainstTheModel pins the send side of the recurrence: overhead,
// injection-port serialization and bypass, arrival, and the three completion
// rules, with and without acknowledgement and link degradation.
func TestSendAgainstTheModel(t *testing.T) {
	// A link rule on 0→2 that is active at t0 = 100 and over by 100.5: the
	// multipliers are sampled at the injection clock, before the overhead
	// moves the clock out of the window, and govern the whole exchange.
	degraded := compile(t, &fault.Plan{Links: []fault.LinkRule{
		{Src: 0, Dst: 2, Class: -1, LatencyFactor: 2, BetaFactor: 3, End: 100.5}}})

	cases := []struct {
		name               string
		src, dst, size     int
		ack                bool
		faults             *fault.Runtime
		now, txFree        float64
		wantNow, wantTx    float64
		wantArrival, wantC float64
	}{
		// o = 1: now 101. transfer = 4·0.5 = 2. Port idle: txStart = 101,
		// txFree = 101 + gap 2 + 2 = 105. arrival = 101 + (L 10 + 2) = 113.
		// Completion when the port is free again.
		{name: "inter-node", src: 0, dst: 2, size: 4, now: 100,
			wantNow: 101, wantTx: 105, wantArrival: 113, wantC: 105},
		// Port busy until 110 > 101: txStart = 110, txFree = 114,
		// arrival = 110 + 12 = 122.
		{name: "inter-node, port wait", src: 0, dst: 2, size: 4, now: 100, txFree: 110,
			wantNow: 101, wantTx: 114, wantArrival: 122, wantC: 114},
		// Ack mode: completion one return latency L(2,0) = 30 after arrival.
		{name: "inter-node, ack", src: 0, dst: 2, size: 4, ack: true, now: 100,
			wantNow: 101, wantTx: 105, wantArrival: 113, wantC: 143},
		// Degraded at t0: transfer = 4·0.5·3 = 6, txFree = 101 + 2 + 6 = 109,
		// arrival = 101 + (10·2 + 6) = 127, ack = 127 + 30·2 = 187.
		{name: "inter-node, ack, link degraded at t0", src: 0, dst: 2, size: 4, ack: true, faults: degraded, now: 100,
			wantNow: 101, wantTx: 109, wantArrival: 127, wantC: 187},
		// The same rule no longer matches at t0 = 101.
		{name: "inter-node, ack, link rule expired", src: 0, dst: 2, size: 4, ack: true, faults: degraded, now: 101,
			wantNow: 102, wantTx: 106, wantArrival: 114, wantC: 144},
		// Same NIC, another rank: o = 0.5, transfer = 4·0.25 = 1; the busy
		// injection port is neither waited for nor occupied;
		// arrival = 100.5 + (3 + 1) = 104.5; completion at arrival.
		{name: "same NIC", src: 0, dst: 1, size: 4, now: 100, txFree: 110,
			wantNow: 100.5, wantTx: 110, wantArrival: 104.5, wantC: 104.5},
		// Same NIC with ack: arrival + L(1,0) = 104.5 + 4.
		{name: "same NIC, ack", src: 0, dst: 1, size: 4, ack: true, now: 100, txFree: 110,
			wantNow: 100.5, wantTx: 110, wantArrival: 104.5, wantC: 108.5},
		// Self-send: o = 0.25, transfer = 4·0.125 = 0.5; the port is used:
		// txStart = 102 (busy), txFree = 102 + 0.25 + 0.5 = 102.75,
		// arrival = 102 + (0.5 + 0.5) = 103; completion at arrival, ack or not.
		{name: "self", src: 0, dst: 0, size: 4, ack: true, now: 100, txFree: 102,
			wantNow: 100.25, wantTx: 102.75, wantArrival: 103, wantC: 103},
		// The reverse direction of the asymmetric rows: o(2,0) = 2,
		// transfer = 2·1 = 2, txFree = 102 + 4 + 2 = 108, arrival = 102 + 32,
		// ack = 134 + L(0,2) = 144.
		{name: "inter-node, reverse rows", src: 2, dst: 0, size: 2, ack: true, now: 100,
			wantNow: 102, wantTx: 108, wantArrival: 134, wantC: 144},
	}
	for _, c := range cases {
		env := &Env{Faults: c.faults, Ack: c.ack}
		st := State{Now: c.now, TxFree: c.txFree, RxFree: 7}
		var in Edge
		got := st.Send(env, c.src, c.dst, 9, c.size, pairOf(c.src, c.dst), &in)
		if st.Now != c.wantNow || st.TxFree != c.wantTx || in.Arrival != c.wantArrival || got != c.wantC {
			t.Errorf("%s: now %v txFree %v arrival %v completeAt %v, want %v %v %v %v",
				c.name, st.Now, st.TxFree, in.Arrival, got, c.wantNow, c.wantTx, c.wantArrival, c.wantC)
		}
		want := Edge{Arrival: c.wantArrival, Gap: rowGap[c.src][c.dst], Size: int32(c.size), SendEv: -1,
			SameNIC: rowNIC[c.src] == rowNIC[c.dst]}
		if in != want {
			t.Errorf("%s: in-edge %+v, want %+v", c.name, in, want)
		}
		if st.RxFree != 7 || st.NoiseSeq != 2 {
			t.Errorf("%s: rxFree %v noiseSeq %d, want the extraction port untouched and two draws", c.name, st.RxFree, st.NoiseSeq)
		}
	}
}

// TestSendNoiseOrder pins which draw scales what: the first the overhead, the
// second the latency and transfer; a slowdown multiplies into both.
func TestSendNoiseOrder(t *testing.T) {
	// Draws 2 and 3 of the stream are 1.25 and 1.375; rank 0 is slowed ×2.
	// o = 1·1.25·2 = 2.5: now 102.5. transfer 2, txFree = 102.5 + 2 + 2.
	// arrival = 102.5 + 12·1.375·2 = 135.5.
	noise := &seqNoise{}
	env := &Env{Noise: Resolve(noise), Faults: compile(t, &fault.Plan{Slowdowns: []fault.Slowdown{{Rank: 0, Factor: 2}}})}
	st := State{Now: 100, NoiseSeq: 2}
	var in Edge
	got := st.Send(env, 0, 2, 9, 4, pairOf(0, 2), &in)
	if st.Now != 102.5 || st.TxFree != 106.5 || in.Arrival != 135.5 || got != 106.5 || st.NoiseSeq != 4 || noise.draws != 2 {
		t.Errorf("now %v txFree %v arrival %v completeAt %v seq %d draws %d", st.Now, st.TxFree, in.Arrival, got, st.NoiseSeq, noise.draws)
	}
}

// TestRecvCompleteAgainstTheModel pins the receive side: the completion is
// the latest of post time, arrival and — across NICs — the extraction port,
// which is then occupied for the pair's gap; gated says the arrival decided.
func TestRecvCompleteAgainstTheModel(t *testing.T) {
	cases := []struct {
		name          string
		post, rxFree  float64
		in            Edge
		wantC, wantRx float64
		wantGated     bool
	}{
		{name: "gated by arrival", post: 100, rxFree: 105, in: Edge{Arrival: 113, Gap: 2},
			wantC: 113, wantRx: 115, wantGated: true},
		{name: "gated by the extraction port", post: 100, rxFree: 120, in: Edge{Arrival: 113, Gap: 2},
			wantC: 120, wantRx: 122},
		{name: "posted after both", post: 130, rxFree: 120, in: Edge{Arrival: 113, Gap: 2},
			wantC: 130, wantRx: 132},
		{name: "same NIC bypasses the port", post: 100, rxFree: 120, in: Edge{Arrival: 113, Gap: 1, SameNIC: true},
			wantC: 113, wantRx: 120, wantGated: true},
	}
	for _, c := range cases {
		st := State{Now: c.post, RxFree: c.rxFree, TxFree: 3}
		got, gated := st.RecvComplete(c.post, &c.in)
		if got != c.wantC || gated != c.wantGated || st.RxFree != c.wantRx {
			t.Errorf("%s: completeAt %v gated %v rxFree %v, want %v %v %v", c.name, got, gated, st.RxFree, c.wantC, c.wantGated, c.wantRx)
		}
		if st.Now != c.post || st.TxFree != 3 || st.NoiseSeq != 0 {
			t.Errorf("%s: RecvComplete moved the clock, the injection port or the noise stream: %+v", c.name, st)
		}
	}
}

// laneEvents records fn's events on rank 1 of a fresh three-rank recording.
func laneEvents(t *testing.T, fn func(lane *trace.Lane)) []trace.Event {
	t.Helper()
	rec := trace.NewRecorder()
	rec.BeginRun(trace.Meta{Procs: 3})
	fn(rec.LaneOf(1))
	rec.EndRun(nil, 0, 0, 0, nil, true)
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	return tr.LaneEvents(1)
}

// TestWaitCrossesFailStop pins the fail-stop transform inside a wait advance:
// rank 1 fails at 110 with restart 5 and checkpoints every 40, so crossing
// costs 5 + (110 mod 40) = 35, paid the moment the advance crosses, recorded
// as a fault interval after the wait, and never paid twice.
func TestWaitCrossesFailStop(t *testing.T) {
	env := &Env{Faults: compile(t, &fault.Plan{FailStops: []fault.FailStop{
		{Rank: 1, FailAt: 110, Restart: 5, Checkpoint: 40}}})}
	in := Edge{Arrival: 113, Gap: 2, Size: 64, SendEv: 4, SendEnd: 101}
	var st State
	events := laneEvents(t, func(lane *trace.Lane) {
		st = State{Now: 101, Lane: lane, Step: 2, Stage: 3}
		st.WaitRecv(env, 1, 113, 0, 9, &in, true) // crosses 110: 113 + 35
		st.WaitSend(env, 1, 150, 2, 9, 64)        // already failed: plain advance
		st.WaitSend(env, 1, 120, 2, 9, 64)        // in the past: nothing
	})
	if st.Now != 150 {
		t.Errorf("clock %v, want 150", st.Now)
	}
	want := []trace.Event{
		{Kind: trace.KindRecvWait, Gated: true, Rank: 1, Peer: 0, Tag: 9, Size: 64, SendSeq: 4, Step: 2, Stage: 3,
			T0: 101, T1: 113, Arrival: 113, SendEnd: 101},
		{Kind: trace.KindFault, Rank: 1, Peer: -1, SendSeq: -1, Step: 2, Stage: 3, T0: 113, T1: 148},
		{Kind: trace.KindSendWait, Rank: 1, Peer: 2, Tag: 9, Size: 64, SendSeq: -1, Step: 2, Stage: 3, T0: 148, T1: 150},
	}
	if len(events) != len(want) {
		t.Fatalf("%d events, want %d: %+v", len(events), len(want), events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d: %+v, want %+v", i, events[i], want[i])
		}
	}

	// Ranks without a fail-stop advance plainly.
	other := State{Now: 101}
	other.WaitRecv(env, 0, 113, 1, 9, &in, true)
	if other.Now != 113 {
		t.Errorf("rank 0 clock %v, want 113", other.Now)
	}
}

// TestComputeDrawsOnce pins that every Compute — also of zero seconds, the
// empty stage's Startall/Waitall — consumes exactly one position of the
// rank's noise stream, and ComputeExact and AdvanceTo none.
func TestComputeDrawsOnce(t *testing.T) {
	noise := &seqNoise{}
	env := &Env{Noise: Resolve(noise)}
	st := State{Now: 10, NoiseSeq: 4}
	st.Compute(env, 0, 0)
	if st.Now != 10 || st.NoiseSeq != 5 || noise.draws != 1 {
		t.Errorf("Compute(0): now %v seq %d draws %d, want 10, 5, 1", st.Now, st.NoiseSeq, noise.draws)
	}
	st.Compute(env, 0, 2) // draw 5 is 1.625: 2·1.625 = 3.25
	if st.Now != 13.25 || st.NoiseSeq != 6 || noise.draws != 2 {
		t.Errorf("Compute(2): now %v seq %d draws %d, want 13.25, 6, 2", st.Now, st.NoiseSeq, noise.draws)
	}
	st.Compute(env, 0, -1) // negative work is no work, but still a draw
	st.ComputeExact(env, 0, 0.75)
	st.AdvanceTo(env, 0, 20)
	st.AdvanceTo(env, 0, 15)
	if st.Now != 20 || st.NoiseSeq != 7 || noise.draws != 3 {
		t.Errorf("now %v seq %d draws %d, want 20, 7, 3", st.Now, st.NoiseSeq, noise.draws)
	}
}

// TestRecordedSizeSaturates pins the one place a payload size is narrowed to
// the 32-bit record fields: sizes of 2 GiB and above are stored as MaxInt32 in
// the in-edge and in the send, receive-wait and send-wait events, never
// wrapped.
func TestRecordedSizeSaturates(t *testing.T) {
	const big = 3 << 30
	env := &Env{}
	var in Edge
	events := laneEvents(t, func(lane *trace.Lane) {
		st := State{Lane: lane}
		done := st.Send(env, 1, 2, 9, big, pairOf(1, 2), &in)
		st.WaitSend(env, 1, done, 2, 9, big)
		c, gated := st.RecvComplete(st.Now, &in)
		st.WaitRecv(env, 1, c, 1, 9, &in, gated)
	})
	if in.Size != math.MaxInt32 {
		t.Errorf("in-edge size %d, want MaxInt32", in.Size)
	}
	if len(events) != 3 {
		t.Fatalf("%d events, want send, send-wait, recv-wait: %+v", len(events), events)
	}
	for _, ev := range events {
		if ev.Size != math.MaxInt32 {
			t.Errorf("%v event size %d, want MaxInt32", ev.Kind, ev.Size)
		}
	}
	if recSize(math.MaxInt32) != math.MaxInt32 || recSize(4096) != 4096 {
		t.Error("sizes below 2 GiB must be stored exactly")
	}
}

// TestMarksLabelEvents pins the stage and superstep labels: a mark labels the
// events after it, a negative stage ends attribution without an event, and
// untraced states ignore marks altogether.
func TestMarksLabelEvents(t *testing.T) {
	env := &Env{}
	events := laneEvents(t, func(lane *trace.Lane) {
		st := State{Now: 1}
		st.Attach(lane)         // superstep 0, outside any stage
		st.AdvanceTo(env, 1, 1) // not ahead of the clock: nothing
		st.StageMark(4)
		st.ComputeExact(env, 1, 1)
		st.StageMark(-1)
		st.SuperstepMark(0)
		st.AdvanceTo(env, 1, 5)
	})
	want := []trace.Event{
		{Kind: trace.KindStage, Rank: 1, Peer: -1, SendSeq: -1, Stage: 4, T0: 1, T1: 1},
		{Kind: trace.KindCompute, Rank: 1, Peer: -1, SendSeq: -1, Stage: 4, T0: 1, T1: 2},
		{Kind: trace.KindSuperstep, Rank: 1, Peer: -1, SendSeq: -1, Step: 0, Stage: -1, T0: 2, T1: 2},
		{Kind: trace.KindAdvance, Rank: 1, Peer: -1, SendSeq: -1, Step: 1, Stage: -1, T0: 2, T1: 5},
	}
	if len(events) != len(want) {
		t.Fatalf("%d events, want %d: %+v", len(events), len(want), events)
	}
	for i := range want {
		if events[i] != want[i] {
			t.Errorf("event %d: %+v, want %+v", i, events[i], want[i])
		}
	}
	untraced := State{Stage: -1}
	untraced.StageMark(3)
	untraced.SuperstepMark(3)
	if untraced != (State{Stage: -1}) {
		t.Errorf("marks changed an untraced state: %+v", untraced)
	}
}

// TestUntracedMessageAllocatesNothing pins the hot path: an untraced send,
// its receive completion and both waits allocate nothing, with and without a
// fault plan, on a noise-free run, a source called for every draw and a
// resolved stream read through windows; and the sender's state is the same
// value (==) on a run whose noise is a flat source as on a noise-free one.
func TestUntracedMessageAllocatesNothing(t *testing.T) {
	plan := compile(t, &fault.Plan{
		Slowdowns: []fault.Slowdown{{Rank: 0, Factor: 2}},
		Links:     []fault.LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2}},
		FailStops: []fault.FailStop{{Rank: 2, FailAt: 50, Restart: 1}},
	})
	for _, faults := range []*fault.Runtime{nil, plan} {
		var states [3]State
		for n, noise := range []NoiseSource{nil, flat{}, resolved{rel: 0.5, s: &windowStream{stored: 1024}}} {
			env := &Env{Noise: Resolve(noise), Faults: faults, Ack: true}
			var src, dst State
			var in Edge
			pc := pairOf(0, 2)
			allocs := testing.AllocsPerRun(100, func() {
				done := src.Send(env, 0, 2, 9, 4096, pc, &in)
				c, gated := dst.RecvComplete(dst.Now, &in)
				dst.WaitRecv(env, 2, c, 0, 9, &in, gated)
				src.WaitSend(env, 0, done, 2, 9, 4096)
			})
			if allocs != 0 {
				t.Errorf("faults=%v noise %d: %v allocs per message, want 0", faults != nil, n, allocs)
			}
			states[n] = src
		}
		if states[0] != states[1] {
			t.Errorf("faults=%v: a flat source gives %+v, no noise %+v", faults != nil, states[1], states[0])
		}
	}
}

// TestStateIsSmall pins the size of a rank's state: one cache line.
func TestStateIsSmall(t *testing.T) {
	if n := unsafe.Sizeof(State{}); n > 64 {
		t.Errorf("a State is %d bytes, want at most 64", n)
	}
}

// windowStream is a memo-like stream: z(rank, seq) = rank + seq/1024, its
// seqs below stored (at most 1024) stored and handed out in aligned windows
// that end at stored when it falls inside them, as a memo row's stored prefix
// does. It counts its calls and keeps the seq of the last.
type windowStream struct {
	rows   [3][1024]float64
	stored uint64
	calls  int
	last   uint64
}

func (s *windowStream) Draw(rank int, seq uint64) (float64, *[WindowLen]float64, uint64) {
	s.calls, s.last = s.calls+1, seq
	z := float64(rank) + float64(seq)/1024
	if seq >= s.stored {
		return z, nil, 0
	}
	row := &s.rows[rank]
	for k := range row {
		row[k] = float64(rank) + float64(k)/1024
	}
	lo := seq &^ (WindowLen - 1)
	return z, (*[WindowLen]float64)(row[lo : lo+WindowLen]), min(s.stored, lo+WindowLen)
}

// resolved is a source that resolves to its scale and stream and must not be
// called itself.
type resolved struct {
	rel float64
	s   Stream
}

func (resolved) Noise(int, uint64) float64 { panic("a resolved source was called") }

func (r resolved) NoiseStream() (float64, Stream) { return r.rel, r.s }

// TestNoiseReadsWindows pins the resolved path: every draw is 1 + rel·z of
// the stream's z; the stream is called once a window and for each draw it
// stores none of; a window read up to the end it came with, whether its
// block's or before it, is read inline up to end − 1 and the stream is
// called at end; a state copied in the middle of a window reads on without a
// call, and one moved to another seq fetches the window there; a noise-free
// resolver is never called, and its window never ends.
func TestNoiseReadsWindows(t *testing.T) {
	s := &windowStream{stored: 1000}
	env := &Env{Noise: Resolve(resolved{rel: 0.5, s: s})}
	want := func(rank int, seq uint64) float64 { return 1 + 0.5*(float64(rank)+float64(seq)/1024) }
	var st State
	for seq := uint64(0); seq < 1100; seq++ {
		if got := st.noise(env, 1); got != want(1, seq) {
			t.Fatalf("draw %d = %v, want %v", seq, got, want(1, seq))
		}
	}
	if wantCalls := (1000+WindowLen-1)/WindowLen + 1100 - 1000; s.calls != wantCalls {
		t.Errorf("%d calls for 1100 draws, want one a window and one a draw past the store: %d", s.calls, wantCalls)
	}

	// Windows that end before their block does: 40 draws stored, then 70.
	for _, stored := range []uint64{40, 70} {
		short := &windowStream{stored: stored}
		env := &Env{Noise: Resolve(resolved{rel: 0.5, s: short})}
		st := State{}
		for seq := uint64(0); seq <= stored; seq++ {
			if got := st.noise(env, 2); got != want(2, seq) {
				t.Fatalf("stored %d: draw %d = %v, want %v", stored, seq, got, want(2, seq))
			}
			if wantCalls := 1 + int(seq/WindowLen); seq < stored && short.calls != wantCalls {
				t.Fatalf("stored %d: %d calls after draw %d, want %d", stored, short.calls, seq, wantCalls)
			}
		}
		if wantCalls := 2 + int((stored-1)/WindowLen); short.calls != wantCalls || short.last != stored {
			t.Errorf("stored %d: %d calls, the last at %d; want %d, the last at the window's end", stored, short.calls, short.last, wantCalls)
		}
	}

	s = &windowStream{stored: 1024}
	env.Noise = Resolve(resolved{rel: 0.5, s: s})
	st = State{}
	for range 10 {
		st.noise(env, 2)
	}
	copied := st
	for seq := uint64(10); seq < WindowLen; seq++ {
		if got := copied.noise(env, 2); got != want(2, seq) {
			t.Fatalf("copied state: draw %d = %v, want %v", seq, got, want(2, seq))
		}
	}
	if s.calls != 1 {
		t.Errorf("a state copied in its window made %d more calls", s.calls-1)
	}
	st.NoiseSeq = 3*WindowLen + 5
	if got := st.noise(env, 2); got != want(2, 3*WindowLen+5) || s.calls != 2 {
		t.Errorf("moved state: %v after %d calls, want %v after 2", got, s.calls, want(2, 3*WindowLen+5))
	}

	off := &windowStream{stored: 1024}
	env.Noise = Resolve(resolved{rel: 0, s: off})
	st = State{}
	for range 100 {
		if got := st.noise(env, 0); got != 1 {
			t.Fatalf("noise-free draw %v", got)
		}
	}
	if off.calls != 0 {
		t.Errorf("a noise-free stream was called %d times", off.calls)
	}
	st.NoiseSeq = math.MaxUint64 - 1
	if f, ok := st.stored(env); !ok || f != 1 {
		t.Errorf("a noise-free window read %v, %v at seq %d, want 1 inline", f, ok, uint64(math.MaxUint64-1))
	}
}
