// Package sched is the goroutine-free discrete-event evaluator of the
// simulator: it computes the virtual times of schedule-expressible workloads
// — verified collective patterns, superstep count exchanges, and arbitrary
// straight-line per-rank op-streams (simnet.Program) — by evaluating the
// LogGP recurrence directly, with no goroutines, mailboxes or channel
// wake-ups. Virtual times, traffic counters and recorded trace events are
// bit-identical to the concurrent engine's: the evaluator replays exactly the
// operations the concurrent walkers perform, in each rank's program order,
// consuming the per-rank Noise(rank, seq) stream in exactly the order the
// concurrent engine consumes it.
//
// Two evaluation modes exist:
//
//   - Whole-run evaluation (RunSchedule, RunProgram): the entire workload is
//     evaluated on the calling goroutine. This is what cmd/simbench's *_de
//     entries measure and what unlocks P=4096, where the concurrent engine's
//     per-message costs are prohibitive.
//
//   - Inline evaluation (Evaluator.ImportProcs / ExecSchedule / ExportProcs):
//     inside a concurrent run, all ranks rendezvous at the run's simnet.Gate,
//     and the last arriver evaluates the collective sequentially against the
//     live per-rank clocks and port states, then resumes everyone. This is
//     how barrier.Execute, the BSP count exchange, the mpi schedule flood and
//     the pairwise benchmark (bench.MeasurePairwise) route through the
//     evaluator while arbitrary closures around them still run on the
//     concurrent engine. The first three are stage graphs (ExecSchedule); the
//     pairwise benchmark is P(P−1) ping-pong episodes, which its leader walks
//     message by message through the point-to-point stepper (Post / Recv /
//     Now).
//
// Both engines bill a message from one pricing call per ordered pair
// (simnet.PairPricer, resolved once per evaluator): send consumes the priced
// pair and hands the receiver a packed in-edge record that already carries
// the pair's gap term, so the receive side never goes back to the machine.
// Per stage those records sit in one flat inbox laid out by a prefix sum over
// the in-degrees. send, recvComplete and the wait/compute helpers below are
// the package's only copy of the LogGP arithmetic — the per-rank, collapsed
// and program walkers and the stepper all call them (a sweep point runs the
// per-rank or the collapsed walker, like any RunSchedule call) — and they
// perform the operations of simnet.sendCore, resolveRecv, Wait and Compute in
// the same order (the cross-engine diff tests pin the agreement).
package sched

import (
	"sync"

	"hbsp/internal/fault"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// Stage is the sparse adjacency of one schedule stage: Out[i] lists the ranks
// i signals, In[j] the ranks signalling j, and OutBytes[i][k] the payload
// size of the edge i→Out[i][k] (nil OutBytes means pure signals).
//
// Ordering contract: In[j] must enumerate sources in the order the edges are
// produced by scanning Out row-major (i ascending, then position in Out[i]).
// Adjacency built by scanning a stage matrix row by row — as
// barrier.Pattern.Adjacency does — satisfies this by construction.
type Stage struct {
	Out      [][]int
	In       [][]int
	OutBytes [][]int
}

// Schedule is the stage-graph view the evaluator executes. A schedule may be
// evaluated by several goroutines at once (sweep workers share one), so
// StageAt must not write state another call can observe.
type Schedule interface {
	// NumProcs returns the number of participating ranks.
	NumProcs() int
	// NumStages returns the number of stages.
	NumStages() int
	// StageAt returns stage s. The evaluator does not retain the value
	// across calls.
	StageAt(s int) Stage
}

// StaticStages wraps a materialized stage slice as a Schedule.
type StaticStages struct {
	Procs  int
	Stages []Stage
	// Sym optionally declares the stage graph's rank symmetry (the
	// symmetry-collapse eligibility hint; see Symmetry). Only set it for
	// stage graphs that actually have the declared shape.
	Sym Symmetry
}

// NumProcs returns the number of participating ranks.
func (s *StaticStages) NumProcs() int { return s.Procs }

// NumStages returns the number of stages.
func (s *StaticStages) NumStages() int { return len(s.Stages) }

// StageAt returns stage i.
func (s *StaticStages) StageAt(i int) Stage { return s.Stages[i] }

// Symmetry returns the declared rank symmetry.
func (s *StaticStages) Symmetry() Symmetry { return s.Sym }

// rankState is one rank's LogGP evolution state: its clock, the free times of
// its injection and extraction ports, its position in the machine's noise
// stream, and — on traced runs — its trace lane and superstep label.
type rankState struct {
	now      float64
	txFree   float64
	rxFree   float64
	noiseSeq uint64
	lane     *trace.Lane
	step     int32
	stage    int32
}

// pairCost is one ordered pair priced once (simnet.PairPricer.Pair).
type pairCost struct {
	lat, gap, beta, ovh, ret float64
	sameNIC                  bool
}

// inEdge is one injected message as its receiver needs it: the arrival time,
// the pair's gap term and NIC sharing (priced by the sender, so the receive
// completion needs no machine call), and the trace linkage of the wait event
// (payload size, the sender's event index and its injection end time).
type inEdge struct {
	arrival, gap, sendEnd float64
	size, sendEv          int32
	sameNIC               bool
}

// Evaluator evaluates schedules against a set of per-rank LogGP states. Its
// per-stage scratch is reused across executions, so steady-state evaluation
// allocates nothing. An Evaluator is not safe for concurrent use; inline
// callers park one in their run's Gate.Scratch, whole-run entry points take
// one from the pool per call.
type Evaluator struct {
	m      simnet.Machine
	pricer simnet.PairPricer // m's pricing call, resolved once per machine
	ack    bool

	// collapseOff disables symmetry-collapsed evaluation for this evaluator
	// (the runtime wires it from Options.SymmetryCollapse).
	collapseOff bool

	// ft is the compiled fault plan of the run, nil when fault-free — the
	// mirror of Proc.ft, wired from Options.Faults (whole-run evaluation) or
	// Proc.Faults (gate rendezvous).
	ft *fault.Runtime

	// lastCollapse is the diagnostic of the most recent collapse decision
	// (ExecScheduleAuto); runs surface it as Result.Collapse.
	lastCollapse simnet.Collapse

	states []rankState

	// Per-stage scratch of the stage walker: entry clocks (the post time of a
	// rank's receives); the flat inbox, receiver r's in-edges at
	// inbox[base(r):base(r)+len(In[r])] with base the prefix sum of the
	// in-degrees, filled through the per-receiver cursors inNext in sender
	// scan order (which is In[r]'s order by the Stage contract); and the
	// send-completion times in sender scan order.
	entry    []float64
	inNext   []int32
	inbox    []inEdge
	sendDone []float64

	// Collapsed-evaluation scratch: per class, the in-edge records of the
	// representative's sends by out-edge position; and the cached
	// rank-equivalence partitions of schedules evaluated inline (a nil
	// partition = ineligible, cached with its reason so the refinement never
	// reruns).
	classIn   [][]inEdge
	partCache map[Schedule]partEntry

	messages int64
	bytes    int64
}

// evalPool recycles evaluators (and with them every per-rank state and
// scratch slice) across runs and sweep points: steady-state RunSchedule and
// gate evaluations reallocate nothing but the result.
var evalPool sync.Pool

// NewEvaluator returns an evaluator for the given machine and ack mode with
// all rank states zeroed. Evaluators come from a shared pool; Release
// returns one when the caller is done.
func NewEvaluator(m simnet.Machine, ack bool) *Evaluator {
	p := m.Procs()
	e, _ := evalPool.Get().(*Evaluator)
	if e == nil {
		e = &Evaluator{}
	}
	e.setMachine(m)
	e.ack = ack
	e.collapseOff = false
	e.ft = nil
	e.lastCollapse = simnet.Collapse{}
	e.messages, e.bytes = 0, 0
	e.partCache = nil
	if cap(e.states) < p {
		e.states = make([]rankState, p)
		e.entry = make([]float64, p)
		e.inNext = make([]int32, p)
	} else {
		e.states = e.states[:p]
		for i := range e.states {
			e.states[i] = rankState{}
		}
		e.entry = e.entry[:p]
		e.inNext = e.inNext[:p]
	}
	return e
}

// setMachine points the evaluator at a machine and resolves its pricing call.
func (e *Evaluator) setMachine(m simnet.Machine) {
	e.m, e.pricer = m, simnet.PricerOf(m)
}

// price prices the ordered pair (i, j) on the evaluator's machine.
func (e *Evaluator) price(i, j int, pc *pairCost) {
	pc.lat, pc.gap, pc.beta, pc.ovh, pc.ret, pc.sameNIC = e.pricer.Pair(i, j)
}

// Release returns the evaluator to the shared pool. The caller must not use
// it afterwards; lane attachments and cached partitions are dropped.
func (e *Evaluator) Release() {
	for i := range e.states {
		e.states[i] = rankState{}
	}
	e.m, e.pricer = nil, nil
	e.ft = nil
	e.partCache = nil
	evalPool.Put(e)
}

// CollapseInfo returns the diagnostic of the evaluator's most recent
// symmetry-collapse decision; simnet.RunContext reads it off the gate-parked
// evaluator into Result.Collapse.
func (e *Evaluator) CollapseInfo() simnet.Collapse { return e.lastCollapse }

// Procs returns the evaluator's rank count.
func (e *Evaluator) Procs() int { return len(e.states) }

// Traffic returns and resets the delivered message and byte counts
// accumulated since the last call.
func (e *Evaluator) Traffic() (messages, bytes int64) {
	messages, bytes = e.messages, e.bytes
	e.messages, e.bytes = 0, 0
	return messages, bytes
}

// Times copies the per-rank clocks into dst (allocating when nil) and
// returns it.
func (e *Evaluator) Times(dst []float64) []float64 {
	if dst == nil {
		dst = make([]float64, len(e.states))
	}
	for i := range e.states {
		dst[i] = e.states[i].now
	}
	return dst
}

// AttachLane points rank's events at a trace lane (nil detaches) and labels
// them with the given superstep.
func (e *Evaluator) AttachLane(rank int, lane *trace.Lane, step int32) {
	e.states[rank].lane = lane
	e.states[rank].step = step
}

// ImportProcs loads the live LogGP state (and trace lane position) of every
// rank of a concurrent run. Only a gate leader may call it (see simnet.Gate
// for the synchronization contract).
func (e *Evaluator) ImportProcs(procs []*simnet.Proc) {
	for i, p := range procs {
		st := &e.states[i]
		st.now, st.txFree, st.rxFree, st.noiseSeq = p.EvalState()
		st.lane, st.step, st.stage = p.EvalTrace()
	}
}

// ExportProcs stores the advanced LogGP states back into the live ranks and
// credits the accumulated traffic to the run's counters.
func (e *Evaluator) ExportProcs(procs []*simnet.Proc) {
	for i, p := range procs {
		st := &e.states[i]
		p.SetEvalState(st.now, st.txFree, st.rxFree, st.noiseSeq)
	}
	msgs, bytes := e.Traffic()
	if msgs != 0 || bytes != 0 {
		procs[0].AddTraffic(msgs, bytes)
	}
}

// EvaluatorAt returns the evaluator parked in the gate's scratch slot,
// creating it on first use. Only the gate leader may call it.
func EvaluatorAt(g *simnet.Gate, p *simnet.Proc) *Evaluator {
	if ev, ok := g.Scratch.(*Evaluator); ok {
		return ev
	}
	ev := NewEvaluator(p.MachineOf(), p.AckSends())
	ev.collapseOff = p.CollapseMode() == simnet.CollapseOff
	ev.ft = p.Faults()
	g.Scratch = ev
	return ev
}

// noise draws the next jitter factor for the rank, mirroring Proc.noise
// (including the fault-plan slowdown multiplier).
func (st *rankState) noise(m simnet.Machine, ft *fault.Runtime, rank int) float64 {
	f := m.Noise(rank, st.noiseSeq)
	if ft != nil {
		f *= ft.Slow(rank, st.noiseSeq, st.now)
	}
	st.noiseSeq++
	return f
}

// setNow mirrors Proc.setNow: move the clock to t, paying the fail-stop
// crossing penalty (and recording the KindFault interval) when the advance
// crosses the rank's fail time.
func (st *rankState) setNow(ft *fault.Runtime, rank int, t float64) {
	if ft != nil {
		if adj, pen := ft.Cross(rank, st.now, t); pen > 0 {
			if st.lane != nil {
				st.lane.Append(trace.Event{Kind: trace.KindFault, Peer: -1, SendSeq: -1,
					Step: st.step, Stage: st.stage, T0: t, T1: adj})
			}
			st.now = adj
			return
		}
	}
	st.now = t
}

// compute mirrors Proc.Compute: advance the clock by noisy work, recording a
// compute interval on traced runs.
func (st *rankState) compute(m simnet.Machine, ft *fault.Runtime, rank int, seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	d := seconds * st.noise(m, ft, rank)
	if st.lane != nil && d > 0 {
		st.lane.Append(trace.Event{Kind: trace.KindCompute, Peer: -1, SendSeq: -1,
			Step: st.step, Stage: st.stage, T0: st.now, T1: st.now + d})
	}
	st.setNow(ft, rank, st.now+d)
}

// computeExact mirrors Proc.ComputeExact.
func (st *rankState) computeExact(ft *fault.Runtime, rank int, seconds float64) {
	if seconds < 0 {
		seconds = 0
	}
	if st.lane != nil && seconds > 0 {
		st.lane.Append(trace.Event{Kind: trace.KindCompute, Peer: -1, SendSeq: -1,
			Step: st.step, Stage: st.stage, T0: st.now, T1: st.now + seconds})
	}
	st.setNow(ft, rank, st.now+seconds)
}

// send mirrors Proc.sendCore on a pair already priced: pay the sender-side
// costs of one eager send, write the message as its receiver sees it into in
// and return the virtual time the send request completes. On traced runs it
// appends the KindSend event and records its lane index (sendEv, -1 untraced)
// and injection end time (sendEnd, the event's T1) in the in-edge, which ride
// to the receiver's wait event exactly as the concurrent engine's message
// envelope carries them.
func (e *Evaluator) send(st *rankState, rank, dst, tag, size int, pc *pairCost, in *inEdge) (completeAt float64) {
	m := e.m
	t0 := st.now
	latMul, betaMul := 1.0, 1.0
	if e.ft != nil && e.ft.HasLinks() {
		latMul, betaMul = e.ft.Link(rank, dst, t0)
	}
	st.setNow(e.ft, rank, st.now+pc.ovh*st.noise(m, e.ft, rank))

	transfer := float64(size) * pc.beta * betaMul
	txStart := st.now
	if !pc.sameNIC || rank == dst {
		if st.txFree > txStart {
			txStart = st.txFree
		}
		st.txFree = txStart + pc.gap + transfer
	}
	arrival := txStart + (pc.lat*latMul+transfer)*st.noise(m, e.ft, rank)

	*in = inEdge{arrival: arrival, gap: pc.gap, size: int32(size), sendEv: -1, sameNIC: pc.sameNIC}
	if st.lane != nil {
		in.sendEv = int32(st.lane.Len())
		in.sendEnd = st.now
		st.lane.Append(trace.Event{Kind: trace.KindSend, Peer: int32(dst), Tag: int32(tag),
			Size: int32(size), SendSeq: -1, Step: st.step, Stage: st.stage,
			T0: t0, T1: st.now, Arrival: arrival})
	}
	e.messages++
	e.bytes += int64(size)

	completeAt = st.txFree
	if rank == dst || pc.sameNIC {
		completeAt = arrival
	}
	if e.ack && rank != dst {
		completeAt = arrival + pc.ret*latMul
	}
	return completeAt
}

// recvComplete mirrors Request.resolveRecv: given the receive's post time and
// the matched message, compute the completion time, serializing the
// extraction port with the gap term the sender priced.
func (st *rankState) recvComplete(postTime float64, in *inEdge) (completeAt float64, gated bool) {
	start := postTime
	if in.arrival > start {
		start = in.arrival
		gated = true
	}
	if !in.sameNIC {
		if st.rxFree > start {
			start = st.rxFree
			gated = false
		}
		st.rxFree = start + in.gap
	}
	return start, gated
}

// waitRecvAdvance mirrors Proc.Wait for a resolved receive: advance the clock
// to the completion time, recording the wait interval on traced runs.
func (st *rankState) waitRecvAdvance(ft *fault.Runtime, rank int, completeAt float64, src, tag int, in *inEdge, gated bool) {
	if completeAt > st.now {
		if st.lane != nil {
			st.lane.Append(trace.Event{Kind: trace.KindRecvWait, Gated: gated,
				Peer: int32(src), Tag: int32(tag), Size: in.size, SendSeq: in.sendEv,
				Step: st.step, Stage: st.stage, T0: st.now, T1: completeAt,
				Arrival: in.arrival, SendEnd: in.sendEnd})
		}
		st.setNow(ft, rank, completeAt)
	}
}

// waitSendAdvance mirrors Proc.Wait for a send request.
func (st *rankState) waitSendAdvance(ft *fault.Runtime, rank int, completeAt float64, dst, tag, size int) {
	if completeAt > st.now {
		if st.lane != nil {
			st.lane.Append(trace.Event{Kind: trace.KindSendWait,
				Peer: int32(dst), Tag: int32(tag), Size: int32(size), SendSeq: -1,
				Step: st.step, Stage: st.stage, T0: st.now, T1: completeAt})
		}
		st.setNow(ft, rank, completeAt)
	}
}

// stageMark mirrors Proc.TraceStage: record the mark (for a non-negative
// stage) and label subsequent events with it.
func (st *rankState) stageMark(stage int32) {
	if st.lane == nil {
		return
	}
	if stage >= 0 {
		st.lane.Append(trace.Event{Kind: trace.KindStage, Peer: -1, SendSeq: -1,
			Step: st.step, Stage: stage, T0: st.now, T1: st.now})
	}
	st.stage = stage
}

// InEdge is one injected message held by a point-to-point caller between the
// Post that wrote it and the Recv that consumes it.
type InEdge = inEdge

// The point-to-point stepper: Post, Recv and Now let a gate leader (or any
// holder of the evaluator) walk a workload that is not a stage graph — a
// ping-pong, a drained burst — one message at a time, in each rank's program
// order, with the caller keeping the in-flight records. They add no
// arithmetic: lanes, the fault plan, ack mode and the per-rank noise order are
// honoured by send, recvComplete and waitRecvAdvance, as in the stage walker.
// The caller must Post a message before it Recvs it; virtual time does not
// depend on how the ranks' steps interleave beyond that.

// Post mirrors Proc.Post: rank src injects one size-byte message to dst at its
// current clock — a fire-and-forget eager send, the completion time dropped —
// and the message as its receiver needs it is written into in.
func (e *Evaluator) Post(src, dst, tag, size int, in *InEdge) {
	var pc pairCost
	e.price(src, dst, &pc)
	e.send(&e.states[src], src, dst, tag, size, &pc, in)
}

// Recv mirrors Proc.Recv for a message already injected: rank dst posts the
// receive at its current clock and waits for in, which src posted with tag.
func (e *Evaluator) Recv(dst, src, tag int, in *InEdge) {
	st := &e.states[dst]
	completeAt, gated := st.recvComplete(st.now, in)
	st.waitRecvAdvance(e.ft, dst, completeAt, src, tag, in, gated)
}

// Now returns rank's clock.
func (e *Evaluator) Now(rank int) float64 { return e.states[rank].now }

// ExecSchedule evaluates one execution of the schedule: per stage, every rank
// posts its receives, injects its sends and then waits — receives first, then
// sends, in edge order — exactly as the concurrent stage walkers
// (barrier.Execute, the mpi flood, both count exchanges) do. Stage s's
// messages carry tag tagBase+s in recorded events. computeEmpty selects
// barrier.Execute's convention of paying an empty Startall/Waitall
// (Compute(0), one noise draw) on stages where a rank has no edges; the flood
// and count-exchange walkers skip such stages outright.
//
// The two-phase sweep per stage is the conservative-PDES evaluation order:
// within a stage every arrival depends only on pre-stage sender state, and
// every completion only on the receiver's own state plus arrivals, so all
// sends of a stage can be evaluated before all waits without changing any
// virtual time the concurrent engine would produce.
func (e *Evaluator) ExecSchedule(s Schedule, tagBase int, computeEmpty bool) {
	e.execStages(s, tagBase, computeEmpty, nil)
}

// execStages is the per-rank stage walker behind ExecSchedule, with an
// optional per-stage cancellation checker (see stageChecker). Every pair is
// priced by the machine's Pair call.
func (e *Evaluator) execStages(s Schedule, tagBase int, computeEmpty bool, chk *stageChecker) error {
	p := len(e.states)
	v := viewOf(s)
	var pc pairCost
	for sg := 0; sg < s.NumStages(); sg++ {
		if chk != nil {
			if err := chk.tick(); err != nil {
				return err
			}
		}
		v.load(sg)
		stage := int32(sg)
		tag := tagBase + sg

		// Inbox layout: receiver r's records start at the prefix sum of the
		// in-degrees before it.
		edges := 0
		for r := 0; r < p; r++ {
			e.inNext[r] = int32(edges)
			edges += len(v.ins(r))
		}
		if cap(e.inbox) < edges {
			e.inbox = make([]inEdge, edges)
		}
		inbox := e.inbox[:edges]
		done := e.sendDone[:0]

		// Phase A: stage marks, receive post times, send injections.
		for r := 0; r < p; r++ {
			rs := &e.states[r]
			rs.stageMark(stage)
			outs := v.outs(r)
			if len(outs) == 0 && len(v.ins(r)) == 0 {
				if computeEmpty {
					rs.compute(e.m, e.ft, r, 0)
				}
				continue
			}
			e.entry[r] = rs.now
			for k, dst := range outs {
				e.price(r, dst, &pc)
				done = append(done, e.send(rs, r, dst, tag, v.outSize(r, k), &pc, &inbox[e.inNext[dst]]))
				e.inNext[dst]++
			}
		}
		e.sendDone = done

		// Phase B: waits, receives first, then sends, in edge order.
		base, sent := 0, 0
		for r := 0; r < p; r++ {
			rs := &e.states[r]
			ins := v.ins(r)
			for q, src := range ins {
				in := &inbox[base+q]
				completeAt, gated := rs.recvComplete(e.entry[r], in)
				rs.waitRecvAdvance(e.ft, r, completeAt, src, tag, in, gated)
			}
			base += len(ins)
			for k, dst := range v.outs(r) {
				rs.waitSendAdvance(e.ft, r, done[sent], dst, tag, v.outSize(r, k))
				sent++
			}
		}
	}
	return nil
}

// superstepMark mirrors Proc.TraceSuperstep: record the boundary of the
// completed superstep and label subsequent events with the next one.
func (st *rankState) superstepMark(step int32) {
	if st.lane == nil {
		return
	}
	st.lane.Append(trace.Event{Kind: trace.KindSuperstep, Peer: -1, SendSeq: -1,
		Step: step, Stage: st.stage, T0: st.now, T1: st.now})
	st.step = step + 1
}
