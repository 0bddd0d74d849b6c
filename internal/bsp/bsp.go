// Package bsp implements the BSPlib programming interface of Chapter 6 on top
// of the simulated message-passing substrate. The run-time follows the
// thesis' modified processing model: one-sided communication committed during
// a superstep is injected eagerly (so it can overlap with the remaining
// computation), and the synchronization that ends the superstep doubles as a
// fixed-size total exchange of per-pair message counts, which tells every
// process how many outstanding one-sided operations it must drain before the
// next superstep may begin. The exchange runs over the synchronizer's schedule,
// which a run builds once and keeps in its memo (simnet.Proc.Memo), and is
// executed like every other schedule on rank goroutines, by mpi.ExecSchedule.
//
// The programming primitives mirror Table 6.1: registration of remotely
// accessible memory (PushReg/PopReg), buffered one-sided writes and reads
// (Put/Get), bulk-synchronous message passing (Send/QueueLen/Move), and
// Sync/Time/Pid/NProcs.
package bsp

import (
	"errors"
	"fmt"

	"hbsp/internal/kernels"
	"hbsp/internal/simnet"
)

// Machine is the platform the BSP run-time executes on: the simulator
// interface plus per-rank kernel timing, satisfied by platform.Machine.
type Machine interface {
	simnet.Machine
	// KernelTime returns the time rank r needs to apply the kernel once to n
	// elements.
	KernelTime(rank int, k kernels.Kernel, n int) float64
}

// Program is the SPMD body executed by every process.
type Program func(ctx *Ctx) error

// Tags used by the run-time; user-visible traffic never names tags directly.
const (
	tagOneSided  = 1 << 24
	tagGetReply  = 1<<24 + 1
	tagCountBase = 1<<24 + 64
)

// headerBytes is the size of the control header that precedes every one-sided
// operation (Section 6.2 lists its six integer fields).
const headerBytes = 6 * 4

// countEntryBytes is the wire width of one message counter in the count
// total exchange. Both exchange implementations and the model-driven
// schedule selection (NewAdaptedSynchronizer) must agree on it, or the cost
// model prices payloads the runtime never sends.
const countEntryBytes = 4

// PutBytes is the wire size of a put of n elements: the control header and
// the values.
func PutBytes(n int) int { return headerBytes + 8*n }

// Run executes the SPMD program on every rank of the machine and returns the
// simulation result (per-rank virtual completion times).
func Run(m Machine, program Program, opts ...simnet.Options) (*simnet.Result, error) {
	return RunWith(m, nil, program, opts...)
}

// putMsg is a buffered one-sided write in flight.
type putMsg struct {
	Name   string
	Offset int
	Data   []float64
}

// getReq asks the destination to read a registered area on behalf of the
// requester.
type getReq struct {
	Name      string
	Offset    int
	N         int
	Requester int
}

// bsmpMsg is a bulk-synchronous message-passing payload.
type bsmpMsg struct {
	Tag  int
	Data []float64
}

// oneSided wraps the three kinds of eager messages so they share a tag and a
// FIFO channel per process pair.
type oneSided struct {
	Put  *putMsg
	Get  *getReq
	Bsmp *bsmpMsg
}

// Ctx is the per-process BSPlib context.
type Ctx struct {
	proc    *simnet.Proc
	machine Machine
	// sync performs the count total exchange that ends every superstep.
	sync Synchronizer

	// Registered memory areas, keyed by registration name.
	regs        map[string][]float64
	pendingReg  []regOp
	currentStep int

	// The destination of every one-sided message sent this superstep, in
	// send order: this process' share of the count exchange.
	sent []int32
	// Get requests issued this superstep, in issue order; replies from a
	// given source arrive in the same order the requests were sent.
	pendingGets []pendingGet

	// Incoming BSMP queue for the current superstep and the one being
	// accumulated for the next.
	queue     []bsmpMsg
	nextQueue []bsmpMsg
}

type pendingGet struct {
	src  int
	dest []float64
}

type regOp struct {
	push bool
	name string
	buf  []float64
}

func newCtx(p *simnet.Proc, m Machine) *Ctx {
	return &Ctx{
		proc:    p,
		machine: m,
		regs:    map[string][]float64{},
	}
}

// NProcs returns the number of processes (bsp_nprocs).
func (c *Ctx) NProcs() int { return c.proc.Size() }

// Pid returns the calling process' identifier (bsp_pid).
func (c *Ctx) Pid() int { return c.proc.Rank() }

// Time returns the process' elapsed virtual time in seconds (bsp_time).
func (c *Ctx) Time() float64 { return c.proc.Now() }

// Superstep returns the index of the current superstep (0 before the first
// Sync).
func (c *Ctx) Superstep() int { return c.currentStep }

// Compute advances the local clock by the given number of seconds of work.
func (c *Ctx) Compute(seconds float64) { c.proc.Compute(seconds) }

// ComputeKernel advances the local clock by the platform's cost of applying
// the kernel to n elements, repeated reps times.
func (c *Ctx) ComputeKernel(k kernels.Kernel, n, reps int) {
	if n <= 0 || reps <= 0 {
		return
	}
	c.proc.Compute(c.machine.KernelTime(c.proc.Rank(), k, n) * float64(reps))
}

// PushReg registers a memory area under a name; the registration takes effect
// at the next Sync (bsp_push_reg).
func (c *Ctx) PushReg(name string, buf []float64) {
	c.pendingReg = append(c.pendingReg, regOp{push: true, name: name, buf: buf})
}

// PopReg removes a registration at the next Sync (bsp_pop_reg).
func (c *Ctx) PopReg(name string) {
	c.pendingReg = append(c.pendingReg, regOp{push: false, name: name})
}

// Registered reports whether a name is currently registered on this process.
func (c *Ctx) Registered(name string) bool {
	_, ok := c.regs[name]
	return ok
}

// ErrNotRegistered is returned when a one-sided operation names an unknown
// registration.
var ErrNotRegistered = errors.New("bsp: target area not registered")

// errRange is wrapped by the error of a one-sided operation whose range does
// not lie inside the registered area.
var errRange = errors.New("exceeds area")

// Put copies values into the registered area of the destination process at
// the given element offset (bsp_put). The transfer is buffered at the source
// and injected immediately; its effect becomes visible at the destination
// after the next Sync.
func (c *Ctx) Put(dst int, name string, offset int, values []float64) error {
	if dst < 0 || dst >= c.NProcs() {
		return fmt.Errorf("bsp: put to invalid process %d", dst)
	}
	if len(values) == 0 {
		return nil
	}
	data := append([]float64(nil), values...)
	msg := &oneSided{Put: &putMsg{Name: name, Offset: offset, Data: data}}
	c.proc.Post(dst, tagOneSided, PutBytes(len(data)), msg)
	c.sent = append(c.sent, int32(dst))
	return nil
}

// Get requests n elements starting at the given offset from the registered
// area of the source process (bsp_get); the values are written into dest
// after the next Sync, reflecting the source's state at synchronization time.
func (c *Ctx) Get(src int, name string, offset, n int, dest []float64) error {
	if src < 0 || src >= c.NProcs() {
		return fmt.Errorf("bsp: get from invalid process %d", src)
	}
	if n == 0 {
		return nil
	}
	if n < 0 {
		return fmt.Errorf("bsp: get of [%d,%d) %w %q", offset, offset+n, errRange, name)
	}
	if len(dest) < n {
		return fmt.Errorf("bsp: get destination holds %d elements, need %d", len(dest), n)
	}
	msg := &oneSided{Get: &getReq{Name: name, Offset: offset, N: n, Requester: c.Pid()}}
	c.proc.Post(src, tagOneSided, headerBytes, msg)
	c.sent = append(c.sent, int32(src))
	c.pendingGets = append(c.pendingGets, pendingGet{src: src, dest: dest[:n]})
	return nil
}

// Send queues a bulk-synchronous message for the destination process
// (bsp_send); it becomes visible in the destination's queue after the next
// Sync.
func (c *Ctx) Send(dst int, tag int, payload []float64) error {
	if dst < 0 || dst >= c.NProcs() {
		return fmt.Errorf("bsp: send to invalid process %d", dst)
	}
	data := append([]float64(nil), payload...)
	msg := &oneSided{Bsmp: &bsmpMsg{Tag: tag, Data: data}}
	size := headerBytes + 8*len(data)
	c.proc.Post(dst, tagOneSided, size, msg)
	c.sent = append(c.sent, int32(dst))
	return nil
}

// QueueLen returns the number of BSMP messages delivered by the previous
// Sync (bsp_qsize).
func (c *Ctx) QueueLen() int { return len(c.queue) }

// PeekTag returns the tag of the first queued message, or an error when the
// queue is empty (bsp_get_tag).
func (c *Ctx) PeekTag() (int, error) {
	if len(c.queue) == 0 {
		return 0, errors.New("bsp: message queue is empty")
	}
	return c.queue[0].Tag, nil
}

// Move dequeues the first BSMP message and returns its payload (bsp_move).
func (c *Ctx) Move() ([]float64, error) {
	if len(c.queue) == 0 {
		return nil, errors.New("bsp: message queue is empty")
	}
	msg := c.queue[0]
	c.queue = c.queue[1:]
	return msg.Data, nil
}

// Abort terminates the program with an error on the calling process
// (bsp_abort). The error propagates out of Run.
func (c *Ctx) Abort(format string, args ...any) error {
	return fmt.Errorf("bsp: abort on process %d: %s", c.Pid(), fmt.Sprintf(format, args...))
}
