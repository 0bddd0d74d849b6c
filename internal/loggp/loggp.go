// Package loggp is the simulator's cost model: the LogGP recurrence that turns
// a rank's operations — compute, send, receive completion, wait — into
// advances of its virtual clock and port states, and into the trace events
// that describe them. It is the only copy of that arithmetic. The concurrent
// engine (internal/simnet) and the direct evaluator (internal/sched) both
// hold one State per rank and call the methods below; what distinguishes the
// engines is who orders the operations and how a receive finds its message,
// never what an operation costs.
//
// The rules, per message from rank i to rank j:
//
//   - the sender pays the per-request overhead o(i,j) on its own clock;
//   - the sender's injection port serializes its outgoing messages, each
//     occupying it for gap(i,j) + size·β(i,j); a message to another rank on
//     the same NIC bypasses the port, a self-send does not;
//   - the message arrives L(i,j) plus the transfer time after it left the
//     port, both subject to the sender's noise draw;
//   - the receiver's extraction port serializes matched messages by gap(i,j),
//     unless sender and receiver share a NIC;
//   - a send request completes when the port is free again (at arrival for
//     port-bypassing and self sends), or, in ack mode (the default), one
//     return latency L(j,i) after arrival — a zero-size acknowledgement has
//     travelled back, the behaviour the thesis' factor-2 stage cost
//     approximates.
//
// A fault plan multiplies into the noise draws (slowdowns), into latency and
// bandwidth at the injection clock (link degradation), and into every clock
// advance that crosses a rank's fail time (fail-stop with restart).
//
// The noise draws are the kernel's hottest call, so a run resolves its noise
// source once, into the Env its ranks share (Resolve): a source that states
// its scale and stream (Resolver, which platform.Machine is) is never called
// again; a noise-free one is not called at all. A stream backed by a memo
// hands a rank a window of stored draws, which the rank's State keeps — an
// array pointer and the exclusive end of its stored draws — and reads inline
// until its stream reaches that end. This package is the only caller of
// Noise: CI fails on a Noise call anywhere else.
package loggp

import (
	"math"

	"hbsp/internal/fault"
	"hbsp/internal/trace"
)

// NoiseSource supplies the multiplicative jitter factor (>= 1) of a rank's
// seq-th noisy event; simnet.Machine implements it. Noise must be safe for
// concurrent calls and a pure function of (rank, seq): the ranks of one run
// draw from it on several goroutines at once, each in its own order.
type NoiseSource interface {
	Noise(rank int, seq uint64) float64
}

// WindowLen is the most stored draws a window holds. Windows are aligned: the
// one holding seq starts at seq &^ (WindowLen-1), and seq's draw is its
// element seq % WindowLen.
const WindowLen = 64

// Stream is a run's noise as half-normal excesses: Noise(rank, seq) = 1 +
// rel·z, rel the source's scale (Resolver). Draw returns z for (rank, seq)
// and, when a memo stores it, the aligned window holding it with the
// exclusive end of the draws stored there: the rank then reads the window's
// draws of seqs below end with no call, and calls again at end. A window
// stores seq itself and at most up to its own last element (seq < end <=
// (seq &^ (WindowLen-1)) + WindowLen), except the all-zero window of a
// noise-free run, which never ends. w is nil when no memo stores the draw.
// Draw must be safe for concurrent calls, and a window's stored draws must
// never change.
type Stream interface {
	Draw(rank int, seq uint64) (z float64, w *[WindowLen]float64, end uint64)
}

// Resolver is the capability of a noise source that states its stream once
// per run: the scale rel of its draws (0 for a noise-free source, which is
// then never called) and the Stream that computes or looks them up.
// platform.Machine implements it; a source without it is called for every
// draw.
type Resolver interface {
	NoiseStream() (rel float64, s Stream)
}

// Env is what the ranks of one run share: the resolved noise stream, the
// compiled fault plan (nil on fault-free runs, one pointer test per event)
// and whether send requests wait for an acknowledgement. The zero Env is
// noise-free.
type Env struct {
	Noise  Noise
	Faults *fault.Runtime
	Ack    bool
}

// Noise is a run's noise source resolved once (Resolve). The zero Noise is
// noise-free.
type Noise struct {
	rel    float64     // the scale of stream's draws
	stream Stream      // a Resolver's stream, or noDraws when noise-free
	src    NoiseSource // a source without Resolver, called for every draw
}

// Resolve resolves a run's noise source: a Resolver's scale and stream are
// kept, so a draw costs no call while the rank's window holds it, and a
// noise-free one is never called: it resolves to a static window of zero
// draws at scale 0 (1 + 0·0 is exactly 1), which a rank reads inline like
// stored draws; any other source is called for every draw.
func Resolve(src NoiseSource) Noise {
	r, ok := src.(Resolver)
	if !ok {
		return Noise{src: src}
	}
	if rel, s := r.NoiseStream(); rel > 0 && s != nil {
		return Noise{rel: rel, stream: s}
	}
	return Noise{stream: noDraws{}}
}

// zeroDraws is the window of every noise-free rank; it is never written.
var zeroDraws [WindowLen]float64

// noDraws is the stream of a noise-free run: every draw 0, from zeroDraws,
// whose end is never reached.
type noDraws struct{}

func (noDraws) Draw(int, uint64) (float64, *[WindowLen]float64, uint64) {
	return 0, &zeroDraws, math.MaxUint64
}

// State is one rank's evolution state: its clock, the free times of its
// injection and extraction ports, its position in the noise stream and the
// window of stored draws it reads it through, and — on traced runs — its trace
// lane with the superstep and stage labels recorded events carry. Fail-stop
// state is derived from the clock (fault.Runtime.Cross), so a State copied
// between the engines at a gate rendezvous is complete. It is comparable and
// 64 bytes: the window is a pointer and the exclusive end of the draws it
// stores, valid for the Env whose Stream handed it out. A rank's seq only
// grows while it keeps a window; a state reused for another run is zeroed.
type State struct {
	Now      float64
	TxFree   float64
	RxFree   float64
	NoiseSeq uint64
	Lane     *trace.Lane
	Step     int32
	Stage    int32

	win    *[WindowLen]float64
	winEnd uint64
}

// Pair is one ordered pair priced once (simnet.PairPricer.Pair): latency,
// gap, inverse bandwidth and sender overhead from the sender to the
// receiver, the return latency an acknowledged send bills, and whether the
// two share a NIC.
type Pair struct {
	Lat, Gap, Beta, Ovh, Ret float64
	SameNIC                  bool
}

// Edge is one injected message as its receiver needs it: the arrival time,
// the pair's gap term and NIC sharing (priced by the sender, so the receive
// completion needs no machine call), and the trace linkage of the wait event
// (payload size, the sender's event index and its injection end time). Send
// writes it in place — into the stage inbox, a program's send slot or a
// mailbox envelope.
type Edge struct {
	Arrival, Gap, SendEnd float64
	Size, SendEv          int32
	SameNIC               bool
}

// Attach points the rank's events at a trace lane, labelled as a run starts:
// superstep 0, outside any stage.
func (st *State) Attach(lane *trace.Lane) {
	st.Lane, st.Step, st.Stage = lane, 0, -1
}

// recSize is a payload size as the 32-bit fields of Edge and trace.Event hold
// it: saturated at MaxInt32, never wrapped. Traffic counters keep the exact
// size.
func recSize(size int) int32 {
	if size > math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(size)
}

// interval records [t0, t1] as a non-communication event under the rank's
// current labels. The caller has checked that the lane is attached.
func (st *State) interval(kind trace.Kind, t0, t1 float64) {
	st.Lane.Append(trace.Event{Kind: kind, Peer: -1, SendSeq: -1,
		Step: st.Step, Stage: st.Stage, T0: t0, T1: t1})
}

// noise draws the rank's next jitter factor: from the rank's window when it
// holds the draw, else through the run's stream, keeping the window it hands
// out. An active fault-plan slowdown multiplies into the draw — the injection
// point of straggler scenarios. The kernel's methods try stored first, which
// the compiler inlines, and call noise when it fails.
func (st *State) noise(env *Env, rank int) float64 {
	seq, n := st.NoiseSeq, &env.Noise
	f := 1.0
	if seq < st.winEnd && st.win != nil {
		f = 1 + n.rel*st.win[seq%WindowLen]
	} else if n.stream != nil {
		z, w, end := n.stream.Draw(rank, seq)
		if w != nil {
			st.win, st.winEnd = w, end
		}
		f = 1 + n.rel*z
	} else if n.src != nil {
		f = n.src.Noise(rank, seq)
	}
	if env.Faults != nil {
		f *= env.Faults.Slow(rank, seq, st.Now)
	}
	st.NoiseSeq++
	return f
}

// stored is noise on a fault-free run whose window holds the rank's next
// draw: that draw and true; else false, with nothing drawn.
func (st *State) stored(env *Env) (float64, bool) {
	if seq := st.NoiseSeq; seq < st.winEnd && st.win != nil && env.Faults == nil {
		st.NoiseSeq++
		return 1 + env.Noise.rel*st.win[seq%WindowLen], true
	}
	return 0, false
}

// setNow moves the clock forward to t. An advance across the rank's fail
// time pays the crash penalty (restart + recompute from the last checkpoint)
// immediately, recorded as a KindFault interval on traced runs (cross).
func (st *State) setNow(env *Env, rank int, t float64) {
	if env.Faults != nil {
		st.cross(env, rank, t)
		return
	}
	st.Now = t
}

// cross is setNow under a fault plan.
func (st *State) cross(env *Env, rank int, t float64) {
	if adj, pen := env.Faults.Cross(rank, st.Now, t); pen > 0 {
		if st.Lane != nil {
			st.interval(trace.KindFault, t, adj)
		}
		st.Now = adj
		return
	}
	st.Now = t
}

// Compute advances the clock by the given seconds of work, subject to one
// noise draw (drawn even for zero seconds: an empty stage still consumes its
// position in the stream).
func (st *State) Compute(env *Env, rank int, seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	f, ok := st.stored(env)
	if !ok {
		f = st.noise(env, rank)
	}
	st.ComputeExact(env, rank, seconds*f)
}

// ComputeExact advances the clock by the given seconds without noise.
func (st *State) ComputeExact(env *Env, rank int, seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	if st.Lane != nil && seconds > 0 {
		st.interval(trace.KindCompute, st.Now, st.Now+seconds)
	}
	st.setNow(env, rank, st.Now+seconds)
}

// AdvanceTo moves the clock forward to at least t (no-op if already past).
func (st *State) AdvanceTo(env *Env, rank int, t float64) {
	if t > st.Now {
		if st.Lane != nil {
			st.interval(trace.KindAdvance, st.Now, t)
		}
		st.setNow(env, rank, t)
	}
}

// Send pays the sender-side costs of one eager send of size bytes from rank
// to dst on the pair pc, writes the message as its receiver sees it into in,
// and returns the virtual time the send request completes. Link degradation
// is sampled once at the injection clock and governs the whole exchange
// (transfer, latency and the ack's return latency). On traced runs it
// appends the KindSend event and records its lane index (SendEv, -1
// untraced) and injection end time (SendEnd, the event's T1) in the edge,
// which ride to the receiver's wait event.
func (st *State) Send(env *Env, rank, dst, tag, size int, pc *Pair, in *Edge) (completeAt float64) {
	t0 := st.Now
	latMul, betaMul := 1.0, 1.0
	if env.Faults != nil && env.Faults.HasLinks() {
		latMul, betaMul = env.Faults.Link(rank, dst, t0)
	}
	f, ok := st.stored(env)
	if !ok {
		f = st.noise(env, rank)
	}
	st.setNow(env, rank, st.Now+pc.Ovh*f)

	transfer := float64(size) * pc.Beta * betaMul
	txStart := st.Now
	if !pc.SameNIC || rank == dst {
		if st.TxFree > txStart {
			txStart = st.TxFree
		}
		st.TxFree = txStart + pc.Gap + transfer
	}
	if f, ok = st.stored(env); !ok {
		f = st.noise(env, rank)
	}
	arrival := txStart + (pc.Lat*latMul+transfer)*f

	// Field by field: a literal is built on the stack and copied with loads
	// wider than its stores, which stall store forwarding on every message.
	in.Arrival, in.Gap, in.SendEnd = arrival, pc.Gap, 0
	in.Size, in.SendEv, in.SameNIC = recSize(size), -1, pc.SameNIC
	if st.Lane != nil {
		in.SendEv = int32(st.Lane.Len())
		in.SendEnd = st.Now
		st.Lane.Append(trace.Event{Kind: trace.KindSend, Peer: int32(dst), Tag: int32(tag),
			Size: in.Size, SendSeq: -1, Step: st.Step, Stage: st.Stage,
			T0: t0, T1: st.Now, Arrival: arrival})
	}

	completeAt = st.TxFree
	if rank == dst || pc.SameNIC {
		completeAt = arrival
	}
	if env.Ack && rank != dst {
		completeAt = arrival + pc.Ret*latMul
	}
	return completeAt
}

// RecvComplete computes the completion time of a receive posted at postTime
// and matched to in, serializing the extraction port with the gap term the
// sender priced. gated reports that the message's arrival, not a local port
// slot, decided the completion.
func (st *State) RecvComplete(postTime float64, in *Edge) (completeAt float64, gated bool) {
	start := postTime
	if in.Arrival > start {
		start = in.Arrival
		gated = true
	}
	if !in.SameNIC {
		if st.RxFree > start {
			start = st.RxFree
			gated = false
		}
		st.RxFree = start + in.Gap
	}
	return start, gated
}

// WaitRecv advances the clock to the completion time of a resolved receive
// from src, recording the wait interval on traced runs.
func (st *State) WaitRecv(env *Env, rank int, completeAt float64, src, tag int, in *Edge, gated bool) {
	if completeAt > st.Now {
		if st.Lane != nil {
			st.Lane.Append(trace.Event{Kind: trace.KindRecvWait, Gated: gated,
				Peer: int32(src), Tag: int32(tag), Size: in.Size, SendSeq: in.SendEv,
				Step: st.Step, Stage: st.Stage, T0: st.Now, T1: completeAt,
				Arrival: in.Arrival, SendEnd: in.SendEnd})
		}
		st.setNow(env, rank, completeAt)
	}
}

// WaitSend advances the clock to the completion time of a send request to
// dst, recording the wait interval on traced runs.
func (st *State) WaitSend(env *Env, rank int, completeAt float64, dst, tag, size int) {
	if completeAt > st.Now {
		if st.Lane != nil {
			st.Lane.Append(trace.Event{Kind: trace.KindSendWait,
				Peer: int32(dst), Tag: int32(tag), Size: recSize(size), SendSeq: -1,
				Step: st.Step, Stage: st.Stage, T0: st.Now, T1: completeAt})
		}
		st.setNow(env, rank, completeAt)
	}
}

// StageMark labels subsequent events with a collective-schedule stage and,
// for a non-negative stage, records the mark; a negative stage ends stage
// attribution. A no-op on untraced runs.
func (st *State) StageMark(stage int32) {
	if st.Lane == nil {
		return
	}
	st.Stage = stage
	if stage >= 0 {
		st.interval(trace.KindStage, st.Now, st.Now)
	}
}

// SuperstepMark records the boundary of the completed superstep and labels
// subsequent events with the next one. A no-op on untraced runs.
func (st *State) SuperstepMark(step int32) {
	if st.Lane == nil {
		return
	}
	st.Step = step
	st.interval(trace.KindSuperstep, st.Now, st.Now)
	st.Step = step + 1
}
