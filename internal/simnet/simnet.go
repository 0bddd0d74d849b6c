// Package simnet is a virtual-time message-passing simulator. It is the
// substrate that replaces the thesis' physical clusters: each rank runs as a
// goroutine with its own logical clock, and communication delays are computed
// from the pairwise latency/gap/bandwidth/overhead parameters supplied by a
// Machine (normally a platform.Machine).
//
// The timing rules — the LogGP decomposition the thesis builds on: sender
// overhead, injection- and extraction-port serialization, latency plus
// transfer time, optional acknowledgement — are the kernel's (internal/loggp),
// which the direct evaluator (internal/sched) calls too; this package adds the
// goroutines that order a rank's operations and the mailboxes that match a
// receive to its message.
//
// Because every delay is derived from per-rank counters and per-rank state,
// simulations are deterministic regardless of goroutine scheduling, provided
// the simulated program itself is deterministic (receives name their source).
package simnet

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"hbsp/internal/fault"
	"hbsp/internal/loggp"
	"hbsp/internal/trace"
)

// Machine supplies the platform parameters the simulator needs. It is
// implemented by platform.Machine.
//
// Every method must be safe for concurrent calls and answer as a pure
// function of its arguments: the concurrent engine's rank goroutines call
// them at once, and so do the workers of a split per-rank walk
// (sched.RunSchedule and the other direct entries above a threshold width).
type Machine interface {
	// Procs returns the number of ranks.
	Procs() int
	// Latency returns the end-to-end latency of a minimal message from i to j.
	Latency(i, j int) float64
	// Gap returns the per-message port occupancy between i and j.
	Gap(i, j int) float64
	// Beta returns the inverse bandwidth between i and j in seconds per byte.
	Beta(i, j int) float64
	// Overhead returns the per-request sender CPU overhead from i to j.
	Overhead(i, j int) float64
	// SelfOverhead returns the invocation overhead of rank i.
	SelfOverhead(i int) float64
	// NIC returns the network interface index of rank i (ranks sharing a
	// node share a NIC index; intra-NIC messages skip port serialization).
	NIC(i int) int
	// Noise returns a multiplicative jitter factor (>= 1) for rank i's
	// seq-th noisy event.
	Noise(rank int, seq uint64) float64
}

// PairPricer is the pricing call both engines bill every message through:
// one call per ordered pair instead of one accessor call per parameter.
// platform.Machine and the server's uploaded-matrix machine implement it;
// PricerOf adapts any other Machine. Like the Machine methods, Pair must be
// safe for concurrent calls — several goroutines of one run price pairs at
// once — and a pure function of (i, j), so a caller may bill many messages
// one price (the pairwise benchmark's gate does, per episode direction).
type PairPricer interface {
	// Pair prices a message from i to j once: its latency, gap, inverse
	// bandwidth and sender overhead, the return latency Latency(j, i) an
	// acknowledged send bills (so asymmetric machines keep their return
	// leg), and whether i and j share a NIC.
	Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool)
}

// PricerOf resolves the machine's pricing call once per run: the machine's
// own Pair when it has one, otherwise the single accessors behind the same
// signature.
func PricerOf(m Machine) PairPricer {
	if pp, ok := m.(PairPricer); ok {
		return pp
	}
	return accessorPricer{m}
}

type accessorPricer struct{ m Machine }

func (a accessorPricer) Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	m := a.m
	return m.Latency(i, j), m.Gap(i, j), m.Beta(i, j), m.Overhead(i, j), m.Latency(j, i), m.NIC(i) == m.NIC(j)
}

// Engine selects how schedule-expressible parts of a run are executed.
type Engine int

const (
	// EngineAuto (the default) runs simulated bodies concurrently but routes
	// every schedule-expressible collective — pattern executions, superstep
	// count exchanges, schedule floods — through the goroutine-free
	// discrete-event evaluator at an all-ranks rendezvous (see Gate). Virtual
	// times are bit-identical to EngineConcurrent.
	EngineAuto Engine = iota
	// EngineConcurrent disables the direct-evaluation fast path entirely:
	// every message goes through goroutines and mailboxes. It exists for
	// engine diffing and for programs that break the collective-call
	// contract the rendezvous relies on.
	EngineConcurrent
)

// CollapseMode selects whether the direct evaluator may collapse
// rank-equivalence classes (see sched.CollapseClasses): evaluate one
// representative rank per class and read each rank's time off its class,
// bit-identical to per-rank evaluation wherever it applies.
type CollapseMode int

const (
	// CollapseAuto (the default) collapses whenever the machine is
	// homogeneous (no pair spread, no noise), the schedule is symmetric, and
	// no trace recorder is attached; evaluation silently falls back to the
	// per-rank sweep otherwise.
	CollapseAuto CollapseMode = iota
	// CollapseOff forces per-rank evaluation everywhere. It exists as an
	// escape hatch and for engine diffing; results are identical either way.
	CollapseOff
)

// Options configure a simulation run.
type Options struct {
	// AckSends makes send requests complete only when an acknowledgement
	// has returned from the destination (one extra latency). This is the
	// default and corresponds to the factor 2 in the thesis' stage cost.
	AckSends bool
	// Engine selects the execution engine for schedule-expressible
	// collectives; the zero value (EngineAuto) enables the direct
	// discrete-event fast path.
	Engine Engine
	// Deadline bounds the real (wall-clock) duration of the simulated run as
	// a guard against deadlocked simulated programs.
	Deadline time.Duration
	// Recorder, when non-nil, records every event of the run (sends, receive
	// completions, compute intervals, superstep and stage boundaries) into
	// per-rank lock-free lanes for post-run analysis and export. nil — the
	// trace.Disabled fast path — costs one pointer test per event.
	Recorder *trace.Recorder
	// SymmetryCollapse controls symmetry-collapsed direct evaluation; the
	// zero value (CollapseAuto) collapses wherever it provably applies.
	SymmetryCollapse CollapseMode
	// Faults, when non-nil, injects the deterministic fault scenario the plan
	// describes: per-rank slowdowns, link degradation windows and fail-stop
	// crashes with checkpoint/restart accounting. Both engines honor the plan
	// bit-identically; nil costs one pointer test on the hot paths.
	Faults *fault.Plan
}

// DefaultOptions returns the options used when none are supplied.
func DefaultOptions() Options {
	return Options{AckSends: true, Deadline: 2 * time.Minute}
}

// Result summarizes a simulation run.
type Result struct {
	// Times holds each rank's final virtual time in seconds.
	Times []float64
	// MakeSpan is the maximum of Times.
	MakeSpan float64
	// Messages is the total number of messages delivered.
	Messages int64
	// Bytes is the total number of payload bytes delivered.
	Bytes int64
	// Collapse reports whether the run's direct evaluations were
	// symmetry-collapsed, and if not, why (the fallback used to be silent).
	Collapse Collapse
}

// Collapse diagnoses the symmetry-collapse decision of a run's direct
// evaluations (sched.RunSchedule, or the collectives routed through the
// gate rendezvous under EngineAuto).
//
// Precedence: when several conditions rule collapse out at once, Reason names
// the first that holds in this order, on every evaluation path — the run's
// switch ("off"); the machine ("hetero", "noise"); the schedule or the fault
// plan ("asymmetric", "fault"); an attached recorder ("trace"); the ranks'
// entry states at a rendezvous ("asymmetric"). So a traced run says "trace"
// only where it would otherwise have collapsed, and the machine's or the
// schedule's own reason where it would not have anyway.
type Collapse struct {
	// Applied is true when collapsed evaluation was used.
	Applied bool
	// Classes is the number of rank-equivalence classes evaluated when
	// Applied.
	Classes int
	// Reason, when Applied is false, names what forced per-rank evaluation —
	// one of the CollapseReason* constants. It stays empty when Applied is
	// true, and also when the run performed no direct evaluation at all
	// (EngineConcurrent, or a run without schedule-expressible collectives).
	Reason string
}

// The collapse fallback reasons Result.Collapse.Reason reports.
const (
	// CollapseReasonOff: the run opted out via CollapseOff.
	CollapseReasonOff = "off"
	// CollapseReasonHetero: the machine has per-pair heterogeneity
	// (HeteroSpread > 0) or does not expose homogeneity at all, so ranks of
	// equal class cannot be proven interchangeable.
	CollapseReasonHetero = "hetero"
	// CollapseReasonNoise: the machine has a live noise model (NoiseRel > 0),
	// whose draws are rank-dependent.
	CollapseReasonNoise = "noise"
	// CollapseReasonTrace: a trace recorder is attached; recording demands
	// per-rank event streams.
	CollapseReasonTrace = "trace"
	// CollapseReasonAsymmetric: the schedule's stage graph (or the ranks'
	// entry states at a rendezvous) is not rank-symmetric, or exceeds the
	// refinement size guards.
	CollapseReasonAsymmetric = "asymmetric"
	// CollapseReasonFault: the fault plan degrades ranks asymmetrically and
	// the refinement could not isolate the degraded ranks into their own
	// classes.
	CollapseReasonFault = "fault"
)

// ErrDeadline is returned when the simulated program does not finish within
// the wall-clock deadline (usually a deadlocked communication pattern).
var ErrDeadline = errors.New("simnet: simulation exceeded wall-clock deadline (deadlock?)")

// ErrAborted is returned by RunContext when the supplied context is cancelled
// before the simulated program finishes. The returned error wraps ErrAborted
// and carries the context's cause.
var ErrAborted = errors.New("simnet: run aborted by context cancellation")

// message is a mailbox envelope: the matching key, the payload, and the
// message as the receive completion needs it (loggp.Edge, written in place by
// the sender's kernel call).
type message struct {
	src, tag int
	payload  any
	edge     loggp.Edge
}

// msgPool recycles message envelopes across the whole process: a message is
// allocated on the sending rank and released on the receiving rank once its
// payload has been extracted, which is exactly the producer/consumer shape
// sync.Pool is designed for.
var msgPool = sync.Pool{New: func() any { return new(message) }}

func releaseMessage(m *message) {
	m.payload = nil
	msgPool.Put(m)
}

// waiterPool recycles the one-shot wake-up channels of blocked receivers.
var waiterPool = sync.Pool{New: func() any { return make(chan *message, 1) }}

// msgQueue is the FIFO of one (src, tag) pair, which it carries as its key.
// msgs[head:] are the pending messages; waiters are blocked receivers, each
// woken individually by exactly one delivery (no thundering herd). A queue
// never holds both pending messages and waiters.
type msgQueue struct {
	key     mbKey
	msgs    []*message
	head    int
	waiters []chan *message
}

func (q *msgQueue) push(m *message) {
	q.msgs = append(q.msgs, m)
}

func (q *msgQueue) pop() *message {
	m := q.msgs[q.head]
	q.msgs[q.head] = nil
	q.head++
	if q.head == len(q.msgs) {
		q.msgs = q.msgs[:0]
		q.head = 0
	} else if q.head > 32 && q.head > len(q.msgs)/2 {
		// Compact when the consumed prefix dominates, so a queue with a
		// standing backlog (producer permanently ahead) stays O(backlog)
		// instead of retaining one slot per message ever enqueued.
		n := copy(q.msgs, q.msgs[q.head:])
		clear(q.msgs[n:])
		q.msgs = q.msgs[:n]
		q.head = 0
	}
	return m
}

// mbKey indexes a mailbox queue: matching in the simulator is always on the
// exact (source, tag) pair, so the mailbox keeps one FIFO per pair instead of
// scanning a flat pending list.
type mbKey struct{ src, tag int }

// slot hashes the key into a table of mask+1 slots. The full 64-bit
// finalizer matters: tags that differ only in high bits (stage tags 2^16
// apart) would otherwise share their low bits and pile into one probe run.
func (k mbKey) slot(mask int) int {
	h := uint64(k.src)*0x9e3779b97f4a7c15 + uint64(k.tag)
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return int(h & uint64(mask))
}

// queueChunkSize is the arena block size for msgQueue allocation. Queues are
// handed out as pointers into fixed-capacity chunks, so creating the P-1
// queues of a large collective costs P/queueChunkSize allocations instead
// of P.
const queueChunkSize = 64

// mailbox holds one rank's incoming traffic, indexed by (source, tag).
//
// The index is one open-addressing table of queue pointers (linear probing,
// power-of-two length, doubled when half full), so its size follows the pairs
// the mailbox has actually seen, whatever the rank count or the tag spread.
// The one-entry lastQ cache in front of it short-circuits consecutive
// operations on the same pair (superstep drains, stage-wise collectives).
type mailbox struct {
	mu sync.Mutex

	slots []*msgQueue
	used  int

	lastQ     *msgQueue
	chunk     []msgQueue
	cancelled *atomic.Bool
}

func newMailbox(cancelled *atomic.Bool) *mailbox {
	return &mailbox{cancelled: cancelled}
}

// queue returns (creating if needed) the FIFO of the (src, tag) pair. The
// caller must hold mb.mu.
func (mb *mailbox) queue(src, tag int) *msgQueue {
	key := mbKey{src: src, tag: tag}
	if mb.lastQ != nil && mb.lastQ.key == key {
		return mb.lastQ
	}
	i, q := mb.find(key)
	if q == nil {
		if 2*(mb.used+1) > len(mb.slots) {
			mb.grow()
			i, _ = mb.find(key)
		}
		if len(mb.chunk) == cap(mb.chunk) {
			mb.chunk = make([]msgQueue, 0, queueChunkSize)
		}
		mb.chunk = append(mb.chunk, msgQueue{key: key})
		q = &mb.chunk[len(mb.chunk)-1]
		mb.slots[i] = q
		mb.used++
	}
	mb.lastQ = q
	return q
}

// find returns the slot holding key's queue, or the empty slot it would take
// (with a nil queue).
func (mb *mailbox) find(key mbKey) (int, *msgQueue) {
	if len(mb.slots) == 0 {
		return 0, nil
	}
	mask := len(mb.slots) - 1
	i := key.slot(mask)
	for q := mb.slots[i]; q != nil; q = mb.slots[i] {
		if q.key == key {
			return i, q
		}
		i = (i + 1) & mask
	}
	return i, nil
}

// grow doubles the table (the first one has 8 slots) and re-inserts every
// queue.
func (mb *mailbox) grow() {
	old := mb.slots
	mb.slots = make([]*msgQueue, max(8, 2*len(old)))
	for _, q := range old {
		if q != nil {
			i, _ := mb.find(q.key)
			mb.slots[i] = q
		}
	}
}

// deliver enqueues the message, or hands it directly to the longest-waiting
// receiver of its (source, tag) pair. Only that single waiter is woken.
func (mb *mailbox) deliver(m *message) {
	mb.mu.Lock()
	q := mb.queue(m.src, m.tag)
	if len(q.waiters) > 0 {
		w := q.waiters[0]
		copy(q.waiters, q.waiters[1:])
		q.waiters[len(q.waiters)-1] = nil
		q.waiters = q.waiters[:len(q.waiters)-1]
		mb.mu.Unlock()
		w <- m // buffered, never blocks
		return
	}
	q.push(m)
	mb.mu.Unlock()
}

// cancelPanic aborts a rank goroutine blocked in (or entering) take after the
// run's wall-clock deadline fired; the rank wrapper in Run recovers it.
type cancelPanic struct{}

// take blocks until a message from src with the given tag is available and
// removes the first such message (FIFO per source/tag pair). If the run has
// been cancelled by the deadline watchdog it panics with cancelPanic so the
// rank goroutine unwinds instead of leaking.
func (mb *mailbox) take(src, tag int) *message {
	mb.mu.Lock()
	if mb.cancelled.Load() {
		mb.mu.Unlock()
		panic(cancelPanic{})
	}
	q := mb.queue(src, tag)
	if q.head < len(q.msgs) {
		m := q.pop()
		mb.mu.Unlock()
		return m
	}
	w := waiterPool.Get().(chan *message)
	q.waiters = append(q.waiters, w)
	mb.mu.Unlock()
	m := <-w
	if m == nil {
		// Woken by cancelAll; the channel may be poisoned, do not pool it.
		panic(cancelPanic{})
	}
	waiterPool.Put(w)
	return m
}

// cancelAll wakes every blocked receiver with a nil message so its goroutine
// can unwind. The world's cancel flag must already be set, so receivers that
// have not blocked yet abort on entry to take instead.
func (mb *mailbox) cancelAll() {
	mb.mu.Lock()
	wake := func(q *msgQueue) {
		for i, w := range q.waiters {
			w <- nil
			q.waiters[i] = nil
		}
		q.waiters = q.waiters[:0]
	}
	for _, q := range mb.slots {
		if q != nil {
			wake(q)
		}
	}
	mb.mu.Unlock()
}

type world struct {
	machine   Machine
	pricer    PairPricer
	env       loggp.Env // the machine's noise, the compiled fault plan, ack mode
	opts      Options
	mailboxes []*mailbox
	procs     []*Proc
	gate      *Gate
	boardMu   sync.Mutex
	boards    map[uint64]*Board // by call number (Proc.Board)
	memoMu    sync.Mutex
	memo      map[any]*memoEntry // nil until a rank asks (Proc.Memo)
	cancelled atomic.Bool
	messages  atomic.Int64
	bytes     atomic.Int64
}

// Proc is the handle a simulated rank uses to compute, communicate and read
// its clock. All of its clock arithmetic is the LogGP kernel's (loggp.State);
// the Proc adds the mailboxes that match a receive to its message.
type Proc struct {
	w     *world
	rank  int
	st    loggp.State
	calls uint64 // collective calls that took a Board

	// reqFree recycles Request objects. A Proc is driven by a single
	// goroutine, so the freelist needs no locking; Wait returns completed
	// requests to it (see the Request lifetime note on Isend/Irecv).
	reqFree []*Request
}

// newRequest takes a Request from the rank-local freelist; the caller
// overwrites it whole.
func (p *Proc) newRequest() *Request {
	if n := len(p.reqFree); n > 0 {
		r := p.reqFree[n-1]
		p.reqFree = p.reqFree[:n-1]
		return r
	}
	return new(Request)
}

func (p *Proc) releaseRequest(r *Request) {
	r.proc = nil
	p.reqFree = append(p.reqFree, r)
}

// Rank returns the rank of the process.
func (p *Proc) Rank() int { return p.rank }

// Size returns the number of ranks in the simulation.
func (p *Proc) Size() int { return p.w.machine.Procs() }

// Now returns the process' current virtual time in seconds.
func (p *Proc) Now() float64 { return p.st.Now }

// Compute advances the process' clock by the given number of seconds of work,
// subject to run-to-run noise.
func (p *Proc) Compute(seconds float64) { p.st.Compute(&p.w.env, p.rank, seconds) }

// ComputeExact advances the clock without noise; benchmark inner loops use it
// when the noise is applied at a coarser granularity.
func (p *Proc) ComputeExact(seconds float64) { p.st.ComputeExact(&p.w.env, p.rank, seconds) }

// AdvanceTo moves the clock forward to at least t (no-op if already past).
func (p *Proc) AdvanceTo(t float64) { p.st.AdvanceTo(&p.w.env, p.rank, t) }

// Tracing reports whether a recorder is attached to this run; layered
// run-times use it to skip per-stage instrumentation calls entirely on
// untraced runs.
func (p *Proc) Tracing() bool { return p.st.Lane != nil }

// The accessors below are the seam between the concurrent engine and the
// goroutine-free discrete-event evaluator (internal/sched): at a Gate
// rendezvous the evaluator copies every rank's kernel state, performs the
// collective's operations sequentially on the copies, and stores the advanced
// clocks back. They are not meant for simulated programs.

// State returns the rank's LogGP kernel state. Only the rank's own goroutine
// and a gate leader may touch it (see Gate for the synchronization contract).
func (p *Proc) State() *loggp.State { return &p.st }

// MachineOf returns the machine the run executes on.
func (p *Proc) MachineOf() Machine { return p.w.machine }

// AckSends reports whether the run acknowledges sends (Options.AckSends).
func (p *Proc) AckSends() bool { return p.w.env.Ack }

// CollapseMode returns the run's symmetry-collapse setting
// (Options.SymmetryCollapse).
func (p *Proc) CollapseMode() CollapseMode { return p.w.opts.SymmetryCollapse }

// Faults returns the run's compiled fault plan (nil on fault-free runs); the
// direct evaluator imports it at the gate rendezvous so both engines inject
// the identical scenario.
func (p *Proc) Faults() *fault.Runtime { return p.w.env.Faults }

// AddTraffic adds to the run's delivered message and byte counters on behalf
// of a direct evaluation.
func (p *Proc) AddTraffic(messages, bytes int64) {
	p.w.messages.Add(messages)
	p.w.bytes.Add(bytes)
}

// SharedGate returns the run's rendezvous gate, or nil when the run executes
// with EngineConcurrent — callers use it as the engine switch: a nil gate
// means "walk the collective concurrently".
func (p *Proc) SharedGate() *Gate { return p.w.gate }

// CheckCancelled unwinds the calling rank through the run's cancellation path
// (exactly as a receive entered after teardown began does) when the run has
// been cancelled by its deadline or context. A gate leader polls it during a
// long evaluation: teardown cannot wake a leader the way it wakes a parked or
// receiving rank, because nothing the leader does blocks.
func (p *Proc) CheckCancelled() {
	if p.w.cancelled.Load() {
		panic(cancelPanic{})
	}
}

// RunProcs returns all ranks' process handles, indexed by rank. Only the
// gate leader may touch peers' handles (see Gate).
func (p *Proc) RunProcs() []*Proc { return p.w.procs }

// TraceSuperstep records a superstep-boundary mark (the index of the
// superstep just completed) and labels subsequent events with the next
// superstep. The BSP run-time calls it from Sync, the MPI layer from
// Barrier; it is a no-op on untraced runs.
func (p *Proc) TraceSuperstep(step int) { p.st.SuperstepMark(int32(step)) }

// TraceStage records a collective-schedule stage mark and labels subsequent
// events with the stage; a negative stage ends stage attribution. The
// pattern executor brackets every stage with it on traced runs.
func (p *Proc) TraceStage(stage int) { p.st.StageMark(int32(stage)) }

// Request represents an outstanding non-blocking operation. Requests are
// recycled: Wait returns the request to its rank's freelist, so a Request must
// not be touched after Wait on it has returned.
type Request struct {
	proc   *Proc
	isSend bool
	peer   int
	tag    int
	size   int

	// A receive is matched and completed at Wait time from the clock it was
	// posted at; a send knows its completion time when it is posted.
	postTime   float64
	completeAt float64
}

// IsSend reports whether the request is a send request.
func (r *Request) IsSend() bool { return r.isSend }

// Peer returns the remote rank of the request.
func (r *Request) Peer() int { return r.peer }

// sendCore is the shared body of Isend and Post (which skips the Request): it
// prices the pair, has the kernel bill the send into a pooled envelope,
// delivers the envelope and returns the virtual time the send request
// completes.
func (p *Proc) sendCore(dst, tag, size int, payload any) (completeAt float64) {
	if dst < 0 || dst >= p.Size() {
		panic(fmt.Sprintf("simnet: send to invalid rank %d", dst))
	}
	w := p.w
	var pc loggp.Pair
	pc.Lat, pc.Gap, pc.Beta, pc.Ovh, pc.Ret, pc.SameNIC = w.pricer.Pair(p.rank, dst)
	msg := msgPool.Get().(*message)
	msg.src, msg.tag, msg.payload = p.rank, tag, payload
	completeAt = p.st.Send(&w.env, p.rank, dst, tag, size, &pc, &msg.edge)
	w.mailboxes[dst].deliver(msg)
	w.messages.Add(1)
	w.bytes.Add(int64(size))
	return completeAt
}

// Isend posts a non-blocking send of size bytes carrying an arbitrary payload
// to rank dst with the given tag. The message is delivered eagerly; the
// returned request completes (for Wait purposes) when the transfer — and, in
// ack mode, its acknowledgement — is done. The request is recycled by Wait
// and must not be used afterwards.
func (p *Proc) Isend(dst, tag, size int, payload any) *Request {
	completeAt := p.sendCore(dst, tag, size, payload)
	r := p.newRequest()
	*r = Request{proc: p, isSend: true, peer: dst, tag: tag, size: size, completeAt: completeAt}
	return r
}

// Post is a fire-and-forget eager send: the sender pays its overhead and port
// occupancy, the message is delivered, and no request has to be waited for.
// The BSP run-time uses it for one-sided communication committed during a
// superstep.
func (p *Proc) Post(dst, tag, size int, payload any) {
	p.sendCore(dst, tag, size, payload)
}

// Irecv posts a non-blocking receive for a message from rank src with the
// given tag. Matching happens at Wait time; the request is recycled by Wait
// and must not be used afterwards.
func (p *Proc) Irecv(src, tag int) *Request {
	if src < 0 || src >= p.Size() {
		panic(fmt.Sprintf("simnet: receive from invalid rank %d", src))
	}
	r := p.newRequest()
	*r = Request{proc: p, peer: src, tag: tag, postTime: p.st.Now}
	return r
}

// Wait blocks until the request completes and advances the caller's clock to
// the completion time. A receive blocks until its message exists, completes
// on the kernel, returns the message payload and releases the envelope back
// to the pool. Wait recycles the request: using (or re-waiting) a Request
// after Wait has returned is an error.
func (p *Proc) Wait(r *Request) any {
	if r.proc == nil {
		panic("simnet: Wait on an already-completed request (requests are recycled by Wait)")
	}
	if r.proc != p {
		panic("simnet: waiting on a request posted by a different rank")
	}
	var out any
	if r.isSend {
		p.st.WaitSend(&p.w.env, p.rank, r.completeAt, r.peer, r.tag, r.size)
	} else {
		msg := p.w.mailboxes[p.rank].take(r.peer, r.tag)
		completeAt, gated := p.st.RecvComplete(r.postTime, &msg.edge)
		p.st.WaitRecv(&p.w.env, p.rank, completeAt, r.peer, r.tag, &msg.edge, gated)
		out = msg.payload
		releaseMessage(msg)
	}
	p.releaseRequest(r)
	return out
}

// WaitAll waits for every request, in order, and returns the payloads of the
// receive requests (send requests contribute nil entries).
func (p *Proc) WaitAll(reqs []*Request) []any {
	out := make([]any, len(reqs))
	for i, r := range reqs {
		out[i] = p.Wait(r)
	}
	return out
}

// Send is a blocking send: Isend followed by Wait.
func (p *Proc) Send(dst, tag, size int, payload any) {
	p.Wait(p.Isend(dst, tag, size, payload))
}

// Recv is a blocking receive from a specific source; it returns the payload.
func (p *Proc) Recv(src, tag int) any {
	return p.Wait(p.Irecv(src, tag))
}

// CompileFaults compiles a run's fault plan against the machine, resolving
// distance classes through the machine's PairClass when it has one. A nil or
// empty plan compiles to a nil runtime (the fault-free hot path).
func CompileFaults(p *fault.Plan, m Machine) (*fault.Runtime, error) {
	var pc func(i, j int) uint8
	if cm, ok := m.(interface{ PairClass(i, j int) uint8 }); ok {
		pc = cm.PairClass
	}
	return fault.Compile(p, m.Procs(), pc)
}

// BeginRecording opens a run on the recorder (a no-op when it is disabled),
// labelling it with the machine's identity, the fault scenario and —
// crucially for reproducing a trace — the exact run seed the machine carries
// (WithRunSeed copies expose theirs through RunSeed). The caller hands out
// the lanes.
func BeginRecording(rec *trace.Recorder, m Machine, ack bool, ft *fault.Runtime) {
	if !rec.Enabled() {
		return
	}
	meta := trace.Meta{Procs: m.Procs(), AckSends: ack}
	if rs, ok := m.(interface{ RunSeed() int64 }); ok {
		meta.Seed, meta.SeedKnown = rs.RunSeed(), true
	}
	if st, ok := m.(fmt.Stringer); ok {
		meta.Machine = st.String()
	}
	meta.Faults = ft.Describe()
	rec.BeginRun(meta)
}

// EndRecording seals the recording with the run's outcome (res is nil on a
// failed run). clean=false means rank goroutines may still be running, so
// their lanes are unreadable; direct evaluations always end clean.
func EndRecording(rec *trace.Recorder, res *Result, messages, bytes int64, err error, clean bool) {
	if !rec.Enabled() {
		return
	}
	var times []float64
	var makespan float64
	if res != nil {
		times, makespan = res.Times, res.MakeSpan
	}
	rec.EndRun(times, makespan, messages, bytes, err, clean)
}

// Run executes body once per rank of the machine, each in its own goroutine,
// and returns the per-rank finishing times. An error returned by any rank, a
// panic in any rank, or exceeding the wall-clock deadline aborts the run.
//
// When the deadline fires, the run is cancelled: every rank blocked in (or
// subsequently entering) a receive unwinds, the watchdog timer is stopped, and
// Run waits for the rank goroutines to terminate before returning ErrDeadline
// — nothing leaks. The one teardown gap is a rank spinning forever in pure
// computation without ever communicating: such a body never yields to the
// simulator and cannot be interrupted, so after a grace period Run returns
// ErrDeadline anyway, leaking that goroutine rather than hanging.
func Run(m Machine, body func(p *Proc) error, opts ...Options) (*Result, error) {
	o := DefaultOptions()
	if len(opts) > 0 {
		o = opts[0]
	}
	return RunContext(context.Background(), m, body, o)
}

// RunContext is Run with explicit options and a context: cancelling the
// context aborts the simulation through the same teardown path as the
// wall-clock deadline (ranks blocked in receives are woken and unwound before
// RunContext returns) and yields an error wrapping ErrAborted. A
// non-positive Deadline falls back to the default.
func RunContext(ctx context.Context, m Machine, body func(p *Proc) error, o Options) (*Result, error) {
	if m == nil || m.Procs() < 1 {
		return nil, errors.New("simnet: machine with at least one rank required")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if o.Deadline <= 0 {
		o.Deadline = DefaultOptions().Deadline
	}
	ft, err := CompileFaults(o.Faults, m)
	if err != nil {
		return nil, err
	}
	w := &world{machine: m, pricer: PricerOf(m), env: loggp.Env{Noise: m, Faults: ft, Ack: o.AckSends},
		opts: o, mailboxes: make([]*mailbox, m.Procs()), boards: map[uint64]*Board{}}
	for i := range w.mailboxes {
		w.mailboxes[i] = newMailbox(&w.cancelled)
	}
	if o.Engine == EngineAuto {
		w.gate = newGate(m.Procs())
	}

	rec := o.Recorder
	BeginRecording(rec, m, o.AckSends, ft)
	// finish seals the recording with the outcome; clean=false means rank
	// goroutines may still be running (their lanes are unreadable).
	finish := func(res *Result, err error, clean bool) (*Result, error) {
		if clean && w.gate != nil {
			// Return the gate-parked evaluator (if any layer created one) to
			// its pool; on unclean teardown a leader may still hold it. Its
			// collapse diagnostics are read off first.
			if ci, ok := w.gate.Scratch.(interface{ CollapseInfo() Collapse }); ok && res != nil {
				res.Collapse = ci.CollapseInfo()
			}
			if rel, ok := w.gate.Scratch.(interface{ Release() }); ok {
				w.gate.Scratch = nil
				rel.Release()
			}
		}
		EndRecording(rec, res, w.messages.Load(), w.bytes.Load(), err, clean)
		return res, err
	}

	procs := make([]*Proc, m.Procs())
	w.procs = procs
	errs := make([]error, m.Procs())
	var wg sync.WaitGroup
	for rank := 0; rank < m.Procs(); rank++ {
		p := &Proc{w: w, rank: rank}
		if rec.Enabled() {
			p.st.Attach(rec.LaneOf(rank))
		}
		procs[rank] = p
		wg.Add(1)
		go func(rank int, p *Proc) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					if _, ok := rec.(cancelPanic); ok {
						errs[rank] = ErrDeadline
						return
					}
					err, ok := rec.(error)
					if !ok {
						err = fmt.Errorf("%v", rec)
					}
					errs[rank] = fmt.Errorf("simnet: rank %d panicked: %w", rank, err)
				}
			}()
			errs[rank] = body(p)
		}(rank, p)
	}

	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	// teardown aborts the run: cancel first (so receives not yet blocked
	// abort on entry), then wake everything already blocked, then wait for
	// the goroutines to unwind. Ranks blocked in receives unwind promptly. A
	// rank that never communicates again cannot be interrupted, so don't let
	// it hang Run: after a grace period return anyway, leaking that one
	// goroutine (as the pre-cancellation implementation always did for every
	// rank).
	// teardown reports whether every rank goroutine actually unwound (false
	// after the grace period: a leaked rank may still be running).
	teardown := func() bool {
		w.cancelled.Store(true)
		if w.gate != nil {
			w.gate.cancelGate()
		}
		for _, mb := range w.mailboxes {
			mb.cancelAll()
		}
		grace := time.NewTimer(5 * time.Second)
		defer grace.Stop()
		select {
		case <-done:
			return true
		case <-grace.C:
			return false
		}
	}
	// completed reports whether every rank has already finished; the abort
	// cases below consult it so that a run finishing at the same instant as
	// the deadline or cancellation still returns its result (a ready done
	// channel must win over a simultaneously ready abort signal).
	completed := func() bool {
		select {
		case <-done:
			return true
		default:
			return false
		}
	}
	timer := time.NewTimer(o.Deadline)
	defer timer.Stop()
	select {
	case <-done:
	case <-timer.C:
		if !completed() {
			return finish(nil, ErrDeadline, teardown())
		}
	case <-ctx.Done():
		if !completed() {
			return finish(nil, fmt.Errorf("%w: %w", ErrAborted, context.Cause(ctx)), teardown())
		}
	}

	var errList []error
	for rank, err := range errs {
		if err != nil {
			errList = append(errList, fmt.Errorf("rank %d: %w", rank, err))
		}
	}
	if len(errList) > 0 {
		return finish(nil, errors.Join(errList...), true)
	}

	res := &Result{Times: make([]float64, m.Procs()), Messages: w.messages.Load(), Bytes: w.bytes.Load()}
	for rank, p := range procs {
		res.Times[rank] = p.st.Now
		if p.st.Now > res.MakeSpan {
			res.MakeSpan = p.st.Now
		}
	}
	return finish(res, nil, true)
}

// MaxTime returns the largest of the supplied times; it is a small helper for
// computing collective completion times from per-rank clocks.
func MaxTime(times []float64) float64 {
	if len(times) == 0 {
		return 0
	}
	max := times[0]
	for _, t := range times[1:] {
		if t > max {
			max = t
		}
	}
	return max
}

// SortedCopy returns a sorted copy of times; reporting code uses it for
// medians and percentiles of per-rank results.
func SortedCopy(times []float64) []float64 {
	out := make([]float64, len(times))
	copy(out, times)
	sort.Float64s(out)
	return out
}
