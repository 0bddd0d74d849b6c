package sched

import (
	"context"
	"errors"
	"sync"

	"hbsp/internal/loggp"
	"hbsp/internal/simnet"
)

// Internal instruction kinds of compiled programs. Send-side and
// receive-side waits are split at compile time, and every receive wait is
// statically matched to the global send slot that produces its message (FIFO
// per (source, destination, tag) — the concurrent mailbox's matching rule,
// resolved once instead of at every delivery).
type instrKind uint8

const (
	iCompute instrKind = iota
	iComputeExact
	iSend     // injects a message into its slot; fills the request's completion time
	iPost     // injects a message into its slot, no request
	iRecv     // records the receive's post time into its request slot
	iWaitSend // waits a send request
	iWaitRecv // waits a receive request, gated on its matched send slot
	iSuperstep
	iStage
)

// instr is one flat instruction of a compiled per-rank stream.
type instr struct {
	sec  float64
	size int // payload bytes of a send, and of the wait on its request
	peer int32
	tag  int32
	req  int32
	mark int32
	// slot is the global send slot: for iSend/iPost the slot this
	// instruction fills, for iWaitRecv the matched slot (-1 when no send in
	// the program ever produces the message — that wait can never complete,
	// the static form of a receive deadlock).
	slot int32
	kind instrKind
}

// Code is a compiled simnet.Program: flat per-rank instruction arrays with
// all message matching resolved. A Code is immutable and may be evaluated
// any number of times; Run's per-evaluation state can be reused via Evaluate
// on a progState.
type Code struct {
	procs int
	ops   [][]instr
	nreq  []int
	// Per global send slot: the owning rank and the index of the producing
	// instruction in its stream (a slot is filled once its owner's program
	// counter has passed that index).
	slotRank []int32
	slotOp   []int32
}

type matchKey struct{ src, dst, tag int }

// Compile lowers the program into flat per-rank instruction arrays, assigns
// every send a global message slot and statically matches every receive wait
// to the slot it consumes: the k-th waited receive of rank d from (s, tag)
// matches the k-th send of rank s to (d, tag), in each rank's program order —
// exactly the concurrent engine's per-(source, tag) FIFO discipline.
func Compile(pr *simnet.Program) (*Code, error) {
	if pr == nil {
		return nil, errors.New("sched: nil program")
	}
	if err := pr.Validate(); err != nil {
		return nil, err
	}
	p := pr.Procs()
	c := &Code{procs: p, ops: make([][]instr, p), nreq: make([]int, p)}

	// Pass 1: enumerate send slots in (rank, program order) and build the
	// per-(src, dst, tag) producer FIFOs.
	sends := map[matchKey][]int32{}
	for r := 0; r < p; r++ {
		for i, op := range pr.Ops(r) {
			if op.Kind == simnet.OpSend || op.Kind == simnet.OpPost {
				slot := int32(len(c.slotRank))
				c.slotRank = append(c.slotRank, int32(r))
				c.slotOp = append(c.slotOp, int32(i))
				key := matchKey{src: r, dst: op.Peer, tag: op.Tag}
				sends[key] = append(sends[key], slot)
			}
		}
	}

	// Pass 2: lower instructions; waited receives consume the producer
	// FIFOs in wait order.
	taken := map[matchKey]int{}
	type reqInfo struct {
		isSend bool
		peer   int32
		tag    int32
		size   int
	}
	nextSlot := int32(0)
	for r := 0; r < p; r++ {
		ops := pr.Ops(r)
		c.nreq[r] = pr.NumReqs(r)
		out := make([]instr, 0, len(ops))
		reqs := make([]reqInfo, pr.NumReqs(r))
		for _, op := range ops {
			switch op.Kind {
			case simnet.OpCompute:
				out = append(out, instr{kind: iCompute, sec: op.Seconds})
			case simnet.OpComputeExact:
				out = append(out, instr{kind: iComputeExact, sec: op.Seconds})
			case simnet.OpSend, simnet.OpPost:
				// Slots were assigned in this same traversal order in pass 1.
				in := instr{peer: int32(op.Peer), tag: int32(op.Tag), size: op.Size, slot: nextSlot}
				nextSlot++
				if op.Kind == simnet.OpSend {
					in.kind = iSend
					in.req = int32(op.Req)
					reqs[op.Req] = reqInfo{isSend: true, peer: in.peer, tag: in.tag, size: in.size}
				} else {
					in.kind = iPost
				}
				out = append(out, in)
			case simnet.OpRecv:
				reqs[op.Req] = reqInfo{peer: int32(op.Peer), tag: int32(op.Tag)}
				out = append(out, instr{kind: iRecv, peer: int32(op.Peer), tag: int32(op.Tag), req: int32(op.Req)})
			case simnet.OpWait:
				ri := reqs[op.Req]
				if ri.isSend {
					out = append(out, instr{kind: iWaitSend, peer: ri.peer, tag: ri.tag, size: ri.size, req: int32(op.Req)})
					continue
				}
				key := matchKey{src: int(ri.peer), dst: r, tag: int(ri.tag)}
				slot := int32(-1)
				if fifo := sends[key]; taken[key] < len(fifo) {
					slot = fifo[taken[key]]
					taken[key]++
				}
				out = append(out, instr{kind: iWaitRecv, peer: ri.peer, tag: ri.tag, req: int32(op.Req), slot: slot})
			case simnet.OpSuperstep:
				out = append(out, instr{kind: iSuperstep, mark: int32(op.Mark)})
			case simnet.OpStage:
				out = append(out, instr{kind: iStage, mark: int32(op.Mark)})
			}
		}
		c.ops[r] = out
	}
	return c, nil
}

// rankHeap is the binary event heap of runnable ranks, keyed by virtual
// clock (ties by rank for determinism): the evaluator always advances the
// earliest runnable rank, the conservative-PDES event order.
type rankHeap struct {
	ranks []int32
	key   []float64 // per rank: the clock at push time
}

func (h *rankHeap) push(r int32, t float64) {
	h.key[r] = t
	h.ranks = append(h.ranks, r)
	i := len(h.ranks) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(h.ranks[i], h.ranks[parent]) {
			break
		}
		h.ranks[i], h.ranks[parent] = h.ranks[parent], h.ranks[i]
		i = parent
	}
}

func (h *rankHeap) less(a, b int32) bool {
	if h.key[a] != h.key[b] {
		return h.key[a] < h.key[b]
	}
	return a < b
}

func (h *rankHeap) pop() int32 {
	top := h.ranks[0]
	last := len(h.ranks) - 1
	h.ranks[0] = h.ranks[last]
	h.ranks = h.ranks[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && h.less(h.ranks[l], h.ranks[small]) {
			small = l
		}
		if r < last && h.less(h.ranks[r], h.ranks[small]) {
			small = r
		}
		if small == i {
			break
		}
		h.ranks[i], h.ranks[small] = h.ranks[small], h.ranks[i]
		i = small
	}
	return top
}

// runState is Code.Run's per-evaluation state, recycled through a pool so
// sweeps that evaluate one compiled program many times (experiments series,
// benchmarks) allocate nothing in steady state.
type runState struct {
	pc      []int32
	reqTime [][]float64
	slots   []loggp.Edge // per global send slot: the injected message
	parked  []int32
	heap    rankHeap
}

var runPool sync.Pool

// newRunState returns pooled state sized for the code; only parked and pc
// need zeroing (slots and reqTime are written before read: slot entries at
// injection, request entries at the producing send/recv).
func newRunState(c *Code) *runState {
	st, _ := runPool.Get().(*runState)
	if st == nil {
		st = &runState{}
	}
	p := c.procs
	if cap(st.pc) < p {
		st.pc = make([]int32, p)
		st.reqTime = make([][]float64, p)
		st.heap.key = make([]float64, p)
	} else {
		st.pc = st.pc[:p]
		for i := range st.pc {
			st.pc[i] = 0
		}
		st.reqTime = st.reqTime[:p]
		st.heap.key = st.heap.key[:p]
	}
	for r := 0; r < p; r++ {
		if cap(st.reqTime[r]) < c.nreq[r] {
			st.reqTime[r] = make([]float64, c.nreq[r])
		} else {
			st.reqTime[r] = st.reqTime[r][:c.nreq[r]]
		}
	}
	nslots := len(c.slotRank)
	if cap(st.slots) < nslots {
		st.slots = make([]loggp.Edge, nslots)
		st.parked = make([]int32, nslots)
	} else {
		st.slots = st.slots[:nslots]
		st.parked = st.parked[:nslots]
		for i := range st.parked {
			st.parked[i] = 0
		}
	}
	st.heap.ranks = st.heap.ranks[:0]
	return st
}

func (st *runState) release() { runPool.Put(st) }

// Run evaluates the compiled program over the event heap: every rank executes
// its instruction stream until it finishes or blocks on a receive whose
// matched send has not been injected yet; injecting a send wakes the rank
// parked on its slot. Virtual times, traffic counters and recorded events are
// bit-identical to simnet.RunProgram on the same machine and options.
//
// A blocked configuration with an empty heap is a communication deadlock; the
// concurrent engine would burn its wall-clock deadline before reporting it,
// the evaluator returns simnet.ErrDeadline immediately. Context cancellation
// and the wall-clock deadline are checked before the first instruction and
// every 8,192 instructions after it, and return the same errors the
// concurrent engine produces.
func (c *Code) Run(ctx context.Context, m simnet.Machine, o simnet.Options) (*simnet.Result, error) {
	return run(ctx, m, c.procs, &o, nil, c.walk)
}

// walk is Code.Run's body. It ticks the poller once per instruction, paced as
// stages 16 ranks wide: one poll every stageCheckBudget/16 = 8,192
// instructions.
func (c *Code) walk(e *Evaluator, chk *stageChecker) (simnet.Collapse, error) {
	e.perRank()
	env := &e.env
	p := c.procs
	st := newRunState(c)
	defer st.release()
	pc := st.pc
	reqTime := st.reqTime // per request slot: post time (recv) or completion (send)
	slots := st.slots
	parked := st.parked // rank+1 parked on this slot
	heap := &st.heap
	for r := p - 1; r >= 0; r-- {
		heap.push(int32(r), 0)
	}
	finished := 0
	chk.pace(16)

	for len(heap.ranks) > 0 {
		r := heap.pop()
		rs := &e.states[r]
		ops := c.ops[r]
	rankLoop:
		for pc[r] < int32(len(ops)) {
			if err := chk.tick(); err != nil {
				return simnet.Collapse{}, err
			}
			in := &ops[pc[r]]
			switch in.kind {
			case iCompute:
				rs.Compute(env, int(r), in.sec)
			case iComputeExact:
				rs.ComputeExact(env, int(r), in.sec)
			case iSend, iPost:
				completeAt := e.send(&e.traffic, rs, int(r), int(in.peer), int(in.tag), in.size, e.Price(int(r), int(in.peer)), &slots[in.slot])
				if in.kind == iSend {
					reqTime[r][in.req] = completeAt
				}
				if w := parked[in.slot]; w != 0 {
					parked[in.slot] = 0
					heap.push(w-1, e.states[w-1].Now)
				}
			case iRecv:
				reqTime[r][in.req] = rs.Now
			case iWaitSend:
				rs.WaitSend(env, int(r), reqTime[r][in.req], int(in.peer), int(in.tag), in.size)
			case iWaitRecv:
				if in.slot < 0 {
					// Statically unmatched: this rank can never proceed.
					break rankLoop
				}
				owner := c.slotRank[in.slot]
				if pc[owner] <= c.slotOp[in.slot] {
					parked[in.slot] = r + 1
					break rankLoop
				}
				msg := &slots[in.slot]
				completeAt, gated := rs.RecvComplete(reqTime[r][in.req], msg)
				rs.WaitRecv(env, int(r), completeAt, int(in.peer), int(in.tag), msg, gated)
			case iSuperstep:
				rs.SuperstepMark(in.mark)
			case iStage:
				rs.StageMark(in.mark)
			}
			pc[r]++
		}
		if pc[r] == int32(len(ops)) {
			finished++
			pc[r]++ // past the end: marks the rank done, and its last send slot visible
		}
	}

	if finished != p {
		return simnet.Collapse{}, simnet.ErrDeadline
	}
	return simnet.Collapse{}, nil
}

// RunProgram executes the program on the engine the options select: the
// direct discrete-event evaluator by default, or the concurrent engine under
// EngineConcurrent. Both produce bit-identical results; the direct path
// compiles the program first, so callers evaluating one program many times
// should Compile once and call Code.Run.
func RunProgram(ctx context.Context, m simnet.Machine, pr *simnet.Program, o simnet.Options) (*simnet.Result, error) {
	if o.Engine == simnet.EngineConcurrent {
		return simnet.RunProgram(ctx, m, pr, o)
	}
	code, err := Compile(pr)
	if err != nil {
		return nil, err
	}
	return code.Run(ctx, m, o)
}
