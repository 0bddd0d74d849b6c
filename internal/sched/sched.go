// Package sched is the discrete-event evaluator of the simulator: it computes
// the virtual times of schedule-expressible workloads — verified collective
// patterns, superstep count exchanges, and arbitrary straight-line per-rank
// op-streams (simnet.Program) — by evaluating the LogGP recurrence directly,
// with no goroutine per rank, no mailboxes and no channel wake-ups. Virtual
// times, traffic counters and recorded trace events are bit-identical to the
// concurrent engine's: the evaluator replays exactly the operations the
// concurrent walker performs, in each rank's program order, consuming the
// per-rank Noise(rank, seq) stream in exactly the order the concurrent engine
// consumes it.
//
// Two evaluation modes exist:
//
//   - Whole-run evaluation (RunSchedule, RunProgram, RunSupersteps): the
//     entire workload — executions of one schedule, an op-stream, or BSP
//     supersteps around their count exchange — is evaluated while the calling
//     goroutine waits (see execStages for the workers). This is what the
//     benchmark's sched.perrank_* and sched.collapsed_* metrics measure and
//     what unlocks P=4096 and beyond, where the concurrent engine's
//     per-message costs are prohibitive.
//
//   - Inline evaluation (AtGate): inside a concurrent run, all ranks
//     rendezvous at the run's simnet.Gate, and the last arriver evaluates the
//     collective sequentially on copies of the live per-rank kernel states,
//     stores the advanced clocks back and resumes everyone. This is how
//     barrier.Execute, the BSP count exchange, the mpi schedule flood and the
//     pairwise benchmark (bench.MeasurePairwise) route through the evaluator
//     while arbitrary closures around them still run on the concurrent
//     engine. The first three are stage graphs (ExecSchedule); the pairwise
//     benchmark is P(P−1) ping-pong episodes, which its leader walks message
//     by message through the point-to-point stepper (PostPriced / Recv / Now).
//
// The evaluator has no clock arithmetic of its own. It holds one loggp.State
// per rank (per equivalence class under symmetry collapse) and calls the LogGP
// kernel (internal/loggp) for every operation —
// the same Send, RecvComplete, WaitRecv, WaitSend and Compute the concurrent
// engine's simnet.Proc calls — so what an operation costs exists once, and
// what this package adds is the order of the operations and the matching of
// a receive to its message: a flat per-stage inbox laid out by prefix sums
// over the degrees (per-rank walker), a per-class queue indexed by
// out-edge position (collapsed walker), statically matched send slots
// (program walker) or the caller's own FIFO (point-to-point stepper). Every
// message is priced by one call for its ordered pair (simnet.PairPricer,
// resolved once per evaluator; a stepper caller may Price a pair once and
// PostPriced many messages) and the kernel writes the in-edge record its
// receiver needs in place, so the receive side never goes back to the
// machine. The cross-engine tests pin that the two orderings and matchings
// agree.
package sched

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"hbsp/internal/loggp"
	"hbsp/internal/simnet"
)

// Stage is the sparse adjacency of one schedule stage: Out[i] lists the ranks
// i signals, In[j] the ranks signalling j, and OutBytes[i][k] the payload
// size of the edge i→Out[i][k] (nil OutBytes means pure signals).
//
// Ordering contract: In[j] must enumerate sources in the order the edges are
// produced by scanning Out row-major (i ascending, then position in Out[i]).
// Edge lists read off a stage matrix row by row satisfy this by construction,
// and so do the relabelings of internal/adapt, whose rank maps are monotone;
// StaticStages.Validate checks it.
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

// Validate checks the stages against the Stage contract: at least one rank
// and one stage, P rows per side, every rank named in range, no self-signals,
// one size per edge where sizes are given, and In[j] listing exactly j's
// senders in the row-major scan order of Out. It takes O(P + edges) per stage.
// The walkers trust their input; a literal is checked once, where it enters.
func (s *StaticStages) Validate() error {
	p := s.Procs
	if p < 1 || len(s.Stages) == 0 {
		return fmt.Errorf("sched: %d ranks, %d stages", p, len(s.Stages))
	}
	next := make([]int, p) // per receiver: how many of its In entries the scan has matched
	for k, st := range s.Stages {
		if len(st.Out) != p || len(st.In) != p || st.OutBytes != nil && len(st.OutBytes) != p {
			return fmt.Errorf("sched: stage %d has %d out rows, %d in rows and %d size rows for %d ranks",
				k, len(st.Out), len(st.In), len(st.OutBytes), p)
		}
		clear(next)
		for i, outs := range st.Out {
			if st.OutBytes != nil && len(st.OutBytes[i]) != len(outs) {
				return fmt.Errorf("sched: stage %d: rank %d has %d edges and %d sizes", k, i, len(outs), len(st.OutBytes[i]))
			}
			for _, j := range outs {
				switch {
				case j < 0 || j >= p:
					return fmt.Errorf("sched: stage %d: rank %d signals rank %d of %d", k, i, j, p)
				case j == i:
					return fmt.Errorf("sched: stage %d: rank %d signals itself", k, i)
				case next[j] == len(st.In[j]) || st.In[j][next[j]] != i:
					return fmt.Errorf("sched: stage %d: In[%d] does not list the edge %d→%d in row-major order", k, j, i, j)
				}
				next[j]++
			}
		}
		for j, ins := range st.In {
			if next[j] != len(ins) {
				return fmt.Errorf("sched: stage %d: In[%d] lists %d senders, Out has %d edges to it", k, j, len(ins), next[j])
			}
		}
	}
	return nil
}

// Evaluator evaluates schedules against a set of per-rank LogGP states, or
// one state per rank-equivalence class when a run collapses. Its
// per-stage scratch is reused across executions, so steady-state evaluation
// allocates nothing. An Evaluator is not safe for concurrent use; inline
// callers park one in their run's Gate.Scratch, the run frame takes one from
// the pool per whole run (a SweepEvaluator keeps its own).
type Evaluator struct {
	m      simnet.Machine
	pricer simnet.PairPricer // m's pricing call, resolved once per machine

	// env is the kernel's view of the run: m's noise stream, the ack mode and
	// the compiled fault plan (nil when fault-free), wired from Options.Faults
	// (whole-run evaluation) or Proc.Faults (gate rendezvous).
	env loggp.Env

	// collapseOff disables symmetry-collapsed evaluation for this evaluator
	// (the runtime wires it from Options.SymmetryCollapse).
	collapseOff bool

	// lastCollapse is the diagnostic of the most recent collapse decision
	// (ExecScheduleAuto); runs surface it as Result.Collapse.
	lastCollapse simnet.Collapse

	// states holds one kernel state per rank, sized by perRank for the bodies
	// that walk ranks; a collapsed whole run leaves it empty.
	states []loggp.State

	// Per-stage scratch of the stage walker, sized with states: entry clocks
	// (the post time of a rank's receives); the inbox and send-completion
	// times of r's k-th out-edge at outBase(r)+k, outBase the prefix sum of
	// the out-degrees; on a generic stage the inbox slot of r's q-th in-edge
	// at slot[inBase(r)+q], handed out by the cursors inNext in sender scan
	// order (In[r]'s order).
	entry    []float64
	inNext   []int32
	inbox    []loggp.Edge
	sendDone []float64
	slot     []int32
	walk     stageWalk // what the workers of the running execStages call share

	// Collapsed-evaluation state, indexed by class: the representative's
	// kernel state and entry clock, and the in-edge records of its sends by
	// out-edge position; the cached rank-equivalence partitions of schedules
	// evaluated inline (a nil partition = ineligible, cached with its reason
	// so the refinement never reruns); and, after a collapsed whole run, its
	// partition — rank r's state is then classStates[ClassOf[r]].
	classStates []loggp.State
	classEntry  []float64
	classIn     [][]loggp.Edge
	partCache   map[Schedule]partEntry
	rankClass   *Partition

	// chk is the run frame's poller, armed per whole run (see run).
	chk stageChecker

	traffic
}

// traffic counts messages and bytes sent. A walk worker keeps its own, added
// atomically as it leaves: one shared counter cost more than the core gained.
type traffic struct{ messages, bytes int64 }

// evalPool recycles evaluators (and with them every per-rank state and
// scratch slice) across runs and sweep points: steady-state RunSchedule and
// gate evaluations reallocate nothing but the result.
var evalPool sync.Pool

// NewEvaluator returns an evaluator for the given machine and ack mode with
// all rank states zeroed. Evaluators come from a shared pool; Release
// returns one when the caller is done.
func NewEvaluator(m simnet.Machine, ack bool) *Evaluator {
	e := newArena(m, ack)
	e.perRank()
	return e
}

// newArena takes an evaluator from the pool for runs on m with no rank state
// sized: a body that walks ranks sizes them (perRank), a collapsed one never
// does.
func newArena(m simnet.Machine, ack bool) *Evaluator {
	e, _ := evalPool.Get().(*Evaluator)
	if e == nil {
		e = &Evaluator{}
	}
	e.setMachine(m)
	e.env.Ack, e.env.Faults = ack, nil
	e.collapseOff = false
	e.lastCollapse = simnet.Collapse{}
	e.partCache = nil
	e.clearRun()
	return e
}

// clearRun readies the arena for a fresh run: no rank state sized, no
// traffic counted.
func (e *Evaluator) clearRun() {
	e.states, e.rankClass = e.states[:0], nil
	e.messages, e.bytes = 0, 0
}

// perRank sizes the per-rank arrays — states, entry clocks, inbox cursors —
// with every state zeroed, for the bodies that walk ranks: the stage walker,
// a traced run (its lanes attach before the body runs), Code.walk and
// Supersteps.walk. Once sized for the run it does nothing.
func (e *Evaluator) perRank() {
	p := e.m.Procs()
	if len(e.states) == p {
		return
	}
	if cap(e.states) < p {
		e.states = make([]loggp.State, p)
		e.entry = make([]float64, p)
		e.inNext = make([]int32, p)
	} else {
		e.states = e.states[:p]
		clear(e.states)
		e.entry = e.entry[:p]
		e.inNext = e.inNext[:p]
	}
}

// setMachine points the evaluator at a machine and resolves its pricing call.
func (e *Evaluator) setMachine(m simnet.Machine) {
	e.m, e.pricer, e.env.Noise = m, simnet.PricerOf(m), m
}

// send is the evaluator's half of a send: count the message in t and have
// the kernel bill it at the pair's price pc (Price) on the sender's state and
// write the receiver's in-edge record into in.
func (e *Evaluator) send(t *traffic, st *loggp.State, rank, dst, tag, size int, pc loggp.Pair, in *loggp.Edge) (completeAt float64) {
	t.messages++
	t.bytes += int64(size)
	return st.Send(&e.env, rank, dst, tag, size, &pc, in)
}

// Price prices the ordered pair (src, dst) through the machine's resolved
// pricing call: the price of every message from src to dst.
func (e *Evaluator) Price(src, dst int) (pc loggp.Pair) {
	pc.Lat, pc.Gap, pc.Beta, pc.Ovh, pc.Ret, pc.SameNIC = e.pricer.Pair(src, dst)
	return pc
}

// Release returns the evaluator to the shared pool. The caller must not use
// it afterwards; lane attachments and cached partitions are dropped.
func (e *Evaluator) Release() {
	clear(e.states)
	e.m, e.pricer = nil, nil
	e.env = loggp.Env{}
	e.partCache, e.rankClass = nil, nil
	evalPool.Put(e)
}

// CollapseInfo returns the diagnostic of the evaluator's most recent
// symmetry-collapse decision; simnet.RunContext reads it off the gate-parked
// evaluator into Result.Collapse.
func (e *Evaluator) CollapseInfo() simnet.Collapse { return e.lastCollapse }

// Times copies the per-rank clocks into dst (allocating when nil) and
// returns it. After a collapsed whole run a rank's clock is its class's.
func (e *Evaluator) Times(dst []float64) []float64 {
	if pt := e.rankClass; pt != nil {
		if dst == nil {
			dst = make([]float64, len(pt.ClassOf))
		}
		for r, c := range pt.ClassOf {
			dst[r] = e.classStates[c].Now
		}
		return dst
	}
	if dst == nil {
		dst = make([]float64, len(e.states))
	}
	for i := range e.states {
		dst[i] = e.states[i].Now
	}
	return dst
}

// AtGate runs fn on the evaluator parked in the gate's scratch slot (created
// on first use, returned to the pool when the run ends) with every rank's
// live kernel state copied in — clock, ports, noise position, trace lane and
// labels — and afterwards stores the advanced clock, ports and noise position
// back into the live ranks and credits the traffic to the run's counters. The
// stage label a walker leaves behind stays in the copy: the ranks' own stage
// attribution is not the evaluator's to change. Only a gate leader may call
// it (see simnet.Gate for the synchronization contract).
func AtGate(g *simnet.Gate, p *simnet.Proc, fn func(ev *Evaluator)) {
	ev, ok := g.Scratch.(*Evaluator)
	if !ok {
		ev = NewEvaluator(p.MachineOf(), p.AckSends())
		ev.collapseOff = p.CollapseMode() == simnet.CollapseOff
		ev.env.Faults = p.Faults()
		g.Scratch = ev
	}
	procs := p.RunProcs()
	for i, q := range procs {
		ev.states[i] = *q.State()
	}
	fn(ev)
	for i, q := range procs {
		copyClock(q.State(), &ev.states[i])
	}
	p.AddTraffic(ev.messages, ev.bytes)
	ev.messages, ev.bytes = 0, 0
}

// copyClock copies what an evaluation advances — clock, port free times and
// noise position — leaving dst's trace lane and labels alone.
func copyClock(dst, src *loggp.State) {
	dst.Now, dst.TxFree, dst.RxFree, dst.NoiseSeq = src.Now, src.TxFree, src.RxFree, src.NoiseSeq
}

// InEdge is one injected message held by a point-to-point caller between the
// Post that wrote it and the Recv that consumes it.
type InEdge = loggp.Edge

// The point-to-point stepper: Post (or Price, then PostPriced), Recv and Now
// let a gate leader (or any holder of the evaluator) walk a workload that is
// not a stage graph — a ping-pong, a drained burst — one message at a time,
// in each rank's program order, with the caller keeping the in-flight records
// (and prices, if it likes). Lanes, the fault plan, ack mode and the per-rank
// noise order are the kernel's business, as in the stage walker. The caller
// must Post a message before it Recvs it; virtual time does not depend on how
// the ranks' steps interleave beyond that.

// Post is simnet.Proc.Post on the evaluator: rank src injects one size-byte
// message to dst at its current clock — a fire-and-forget eager send, the
// completion time dropped — and the message as its receiver needs it is
// written into in. It is Price, then PostPriced.
func (e *Evaluator) Post(src, dst, tag, size int, in *InEdge) {
	e.PostPriced(src, dst, tag, size, e.Price(src, dst), in)
}

// PostPriced is Post with the pair's price given: pc must be Price(src, dst).
func (e *Evaluator) PostPriced(src, dst, tag, size int, pc loggp.Pair, in *InEdge) {
	e.send(&e.traffic, &e.states[src], src, dst, tag, size, pc, in)
}

// Recv is simnet.Proc.Recv for a message already injected: rank dst posts the
// receive at its current clock and waits for in, which src posted with tag.
func (e *Evaluator) Recv(dst, src, tag int, in *InEdge) {
	st := &e.states[dst]
	completeAt, gated := st.RecvComplete(st.Now, in)
	st.WaitRecv(&e.env, dst, completeAt, src, tag, in, gated)
}

// Now returns rank's clock.
func (e *Evaluator) Now(rank int) float64 { return e.states[rank].Now }

// ExecSchedule evaluates one execution of the schedule: per stage, every rank
// posts its receives, injects its sends and then waits — receives first, then
// sends, in edge order — exactly as the concurrent engine's walker
// (mpi.WalkSchedule, which takes the same three arguments) does rank by rank.
// Stage s's messages carry tag tagBase+s in recorded events. computeEmpty
// selects barrier.Execute's convention of paying an empty Startall/Waitall
// (Compute(0), one noise draw) on stages where a rank has no edges; the
// collectives skip such stages outright.
//
// The two-phase sweep per stage is the conservative-PDES evaluation order:
// within a stage every arrival depends only on pre-stage sender state, and
// every completion only on the receiver's own state plus arrivals, so all
// sends of a stage can be evaluated before all waits without changing any
// virtual time the concurrent engine would produce.
func (e *Evaluator) ExecSchedule(s Schedule, tagBase int, computeEmpty bool) {
	e.execStages(s, tagBase, computeEmpty, nil)
}

// walkBlockEdges is the fewest edges a worker of a split stage gets: at ≈0.5 µs
// a barrier round and ≈60 ns an edge (two cores of an x86 VM), 512 edges pay
// two rounds in ≈3%. The daemon's benchmarked walks (P ≤ 512) stay on one.
const walkBlockEdges = 512

// walkCores counts the cores the walks of 2·walkBlockEdges ranks or more hold;
// a walk splits over what the others leave free (two callers splitting over
// both of two cores were slower than both walking alone).
var walkCores atomic.Int32

// execStages is the per-rank stage walker behind ExecSchedule, with an
// optional per-stage cancellation checker (see stageChecker). It is one of
// two stage loops — execCollapsed is the other — and they stay two because
// they match a receive to its message differently: here every in-edge has its
// own slot in a flat inbox, O(1) per edge; the collapsed walker keeps one
// queue per class and finds a record by searching the source's out-row for
// the receiver. Serving per-rank evaluation from the class queue would pay
// that search per in-edge — O(P²) per stage on a linear barrier, which is
// what the flat inbox removed.
//
// It is one block walker: per stage the last worker at the barrier lays the
// stage out (next), then each engaged worker runs phase A (sends) over its
// block of ranks, meets the others, and runs phase B (waits) over the block.
// A send writes its sender's state and an inbox slot of its own (the
// receiver's slot cost ≈9%, in cache lines claimed from the other core). An
// unrecorded walk of 2·walkBlockEdges ranks or more gets up to
// min(GOMAXPROCS, P/walkBlockEdges) goroutines, a stage engaging as many as
// its edges fill blocks of walkBlockEdges; the caller waits and re-raises a
// worker's panic (in the barrier on a thread locked by LockOSThread it ran at
// half speed). Any other walk is the caller alone, through the same code; a
// recorded one so that lanes — and a spill's chunks — fill in file order.
func (e *Evaluator) execStages(s Schedule, tagBase int, computeEmpty bool, chk *stageChecker) error {
	n := int32(1)
	if p := len(e.states); p >= 2*walkBlockEdges {
		if !e.tracing() {
			n = max(1, min(int32(p/walkBlockEdges), int32(runtime.GOMAXPROCS(0))-walkCores.Load()))
		}
		walkCores.Add(n)
		defer walkCores.Add(-n)
	}
	w := &e.walk
	*w = stageWalk{e: e, s: s, chk: chk, tagBase: tagBase, computeEmpty: computeEmpty,
		workers: n, sg: -1, v: ViewOf(s), blocks: slices.Grow(w.blocks[:0], int(n))[:n]}
	defer func() { w.s, w.v, w.panicked = nil, StageView{}, nil }() // the arena outlives the walk
	if n == 1 {
		w.work(0)
		return w.err
	}
	w.wg.Add(int(n))
	for id := range int(n) {
		go func() {
			defer func() {
				if r := recover(); r != nil && w.failed.CompareAndSwap(false, true) {
					w.panicked = r // for the caller to re-raise
				}
				w.wg.Done()
			}()
			w.work(id)
		}()
	}
	w.wg.Wait()
	if w.panicked != nil {
		panic(w.panicked)
	}
	return w.err
}

// stageWalk is what the workers of one execStages call share; next writes the
// stage fields while every worker waits at the barrier.
type stageWalk struct {
	e            *Evaluator
	s            Schedule
	chk          *stageChecker
	tagBase      int
	computeEmpty bool
	workers      int32
	sg           int       // the stage being walked
	v            StageView // stage sg; each worker walks a copy
	active       int       // workers the stage engages
	blocks       []walkBlock
	err          error // the checker's: the walk ends
	arrived      atomic.Int32
	gen          atomic.Uint32 // barrier rounds completed
	failed       atomic.Bool   // a worker panicked: the others leave the barrier
	panicked     any
	wg           sync.WaitGroup
}

// walkBlock is a worker's ranks [lo, hi) and where their edges start.
type walkBlock struct{ lo, hi, inBase, outBase int }

// work walks the stages as worker id: phase A over its block, the barrier,
// phase B, the barrier at which the next stage is laid out.
func (w *stageWalk) work(id int) {
	var t traffic
	for w.meet(true) {
		v := w.v // a circulant view's Outs and Ins write buffers of the view
		if id < w.active {
			w.sends(&v, w.blocks[id], &t)
		}
		if w.meet(false) && id < w.active {
			w.waits(&v, w.blocks[id])
		}
	}
	atomic.AddInt64(&w.e.messages, t.messages)
	atomic.AddInt64(&w.e.bytes, t.bytes)
}

// meet is the workers' barrier, the last to arrive first running next when
// asked; it reports whether the walk goes on (not once a worker panicked).
func (w *stageWalk) meet(next bool) bool {
	g := w.gen.Load()
	if w.arrived.Add(1) == w.workers {
		if next {
			w.next()
		}
		w.arrived.Store(0)
		w.gen.Add(1)
	}
	for spin := 0; w.gen.Load() == g && !w.failed.Load(); spin++ {
		if spin >= 64 { // polled briefly: yield the thread between polls
			runtime.Gosched()
		}
	}
	return !w.failed.Load() && w.sg < w.s.NumStages() && w.err == nil
}

// next moves to the following stage, or ends the walk, and lays the stage out:
// the workers its edges engage, their blocks, and every in-edge's inbox slot.
func (w *stageWalk) next() {
	if w.sg++; w.sg == w.s.NumStages() {
		return
	}
	if w.err = w.chk.tick(); w.err != nil {
		return
	}
	e, v, p := w.e, &w.v, len(w.e.states)
	v.Load(w.sg)
	edges := 0
	if v.cs == nil {
		for r := 0; r < p; r++ {
			e.inNext[r] = int32(edges)
			edges += len(v.Ins(r))
		}
	} else if v.off != 0 {
		edges = p // a circulant rank's in- and out-base are the rank
	}
	w.active = max(1, min(int(w.workers), edges/walkBlockEdges))
	for i := range w.active { // inBase is read on generic stages only, outBase set below for them
		lo := i * p / w.active
		w.blocks[i] = walkBlock{lo, (i + 1) * p / w.active, int(e.inNext[lo]), lo}
	}
	e.inbox, e.sendDone = slices.Grow(e.inbox[:0], edges)[:edges], slices.Grow(e.sendDone[:0], edges)[:edges]
	if v.cs != nil {
		return
	}
	e.slot = slices.Grow(e.slot[:0], edges)[:edges]
	for r, out, b := 0, 0, 0; r < p; r++ {
		if b < w.active && w.blocks[b].lo == r {
			w.blocks[b].outBase = out
			b++
		}
		for _, dst := range v.Outs(r) {
			e.slot[e.inNext[dst]] = int32(out)
			e.inNext[dst]++
			out++
		}
	}
}

// sends is phase A over a block: stage marks, receive post times, and send
// injections, each sender's in-edge records into its own inbox slots.
func (w *stageWalk) sends(v *StageView, b walkBlock, t *traffic) {
	e, env := w.e, &w.e.env
	stage, tag, out := int32(w.sg), w.tagBase+w.sg, b.outBase
	for r := b.lo; r < b.hi; r++ {
		rs := &e.states[r]
		rs.StageMark(stage)
		outs := v.Outs(r)
		if len(outs) == 0 && len(v.Ins(r)) == 0 {
			if w.computeEmpty {
				rs.Compute(env, r, 0)
			}
			continue
		}
		e.entry[r] = rs.Now
		for k, dst := range outs {
			e.sendDone[out] = e.send(t, rs, r, dst, tag, v.OutSize(r, k), e.Price(r, dst), &e.inbox[out])
			out++
		}
	}
}

// waits is phase B over a block: receives first, then sends, in edge order.
func (w *stageWalk) waits(v *StageView, b walkBlock) {
	e, env := w.e, &w.e.env
	tag, in, out := w.tagBase+w.sg, b.inBase, b.outBase
	for r := b.lo; r < b.hi; r++ {
		rs := &e.states[r]
		ins := v.Ins(r)
		for q, src := range ins {
			at := src // a circulant sender's only slot is its rank
			if v.cs == nil {
				at = int(e.slot[in+q])
			}
			completeAt, gated := rs.RecvComplete(e.entry[r], &e.inbox[at])
			rs.WaitRecv(env, r, completeAt, src, tag, &e.inbox[at], gated)
		}
		in += len(ins)
		for k, dst := range v.Outs(r) {
			rs.WaitSend(env, r, e.sendDone[out], dst, tag, v.OutSize(r, k))
			out++
		}
	}
}
