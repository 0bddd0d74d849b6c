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

// Env is what the ranks of one run share: the noise source, the compiled
// fault plan (nil on fault-free runs, one pointer test per event) and whether
// send requests wait for an acknowledgement.
type Env struct {
	Noise  NoiseSource
	Faults *fault.Runtime
	Ack    bool
}

// State is one rank's evolution state: its clock, the free times of its
// injection and extraction ports, its position in the noise stream, and — on
// traced runs — its trace lane with the superstep and stage labels recorded
// events carry. Fail-stop state is derived from the clock (fault.Runtime.Cross),
// so a State copied between the engines at a gate rendezvous is complete.
type State struct {
	Now      float64
	TxFree   float64
	RxFree   float64
	NoiseSeq uint64
	Lane     *trace.Lane
	Step     int32
	Stage    int32
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

// noise draws the rank's next jitter factor. An active fault-plan slowdown
// multiplies into the draw — the injection point of straggler scenarios.
func (st *State) noise(env *Env, rank int) float64 {
	f := env.Noise.Noise(rank, st.NoiseSeq)
	if env.Faults != nil {
		f *= env.Faults.Slow(rank, st.NoiseSeq, st.Now)
	}
	st.NoiseSeq++
	return f
}

// setNow moves the clock forward to t. An advance across the rank's fail
// time pays the crash penalty (restart + recompute from the last checkpoint)
// immediately, recorded as a KindFault interval on traced runs.
func (st *State) setNow(env *Env, rank int, t float64) {
	if env.Faults != nil {
		if adj, pen := env.Faults.Cross(rank, st.Now, t); pen > 0 {
			if st.Lane != nil {
				st.interval(trace.KindFault, t, adj)
			}
			st.Now = adj
			return
		}
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
	st.ComputeExact(env, rank, seconds*st.noise(env, rank))
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
	st.setNow(env, rank, st.Now+pc.Ovh*st.noise(env, rank))

	transfer := float64(size) * pc.Beta * betaMul
	txStart := st.Now
	if !pc.SameNIC || rank == dst {
		if st.TxFree > txStart {
			txStart = st.TxFree
		}
		st.TxFree = txStart + pc.Gap + transfer
	}
	arrival := txStart + (pc.Lat*latMul+transfer)*st.noise(env, rank)

	*in = Edge{Arrival: arrival, Gap: pc.Gap, Size: recSize(size), SendEv: -1, SameNIC: pc.SameNIC}
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
