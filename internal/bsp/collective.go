package bsp

import (
	"fmt"

	"hbsp/internal/barrier"
	"hbsp/internal/mpi"
	"hbsp/internal/sched"
)

// ReduceOp combines two reduction operands; it must be associative and
// commutative for the result to be meaningful, and is always applied in rank
// order, so the result is deterministic.
type ReduceOp func(a, b float64) float64

// Standard reduction operators.
var (
	OpSum ReduceOp = func(a, b float64) float64 { return a + b }
	OpMax ReduceOp = ReduceOp(mpi.OpMax)
	OpMin ReduceOp = ReduceOp(mpi.OpMin)
)

// The Ctx collectives below are synchronizing subroutine collectives: every
// process must call them collectively (same operation, compatible sizes, in
// the same order), and they communicate independently of the superstep
// machinery — buffered Put/Get/Send traffic stays pending until the next
// Sync. Each call executes the collective's streamed generator schedule
// (barrier's tests verify every generator against its semantics by the
// knowledge recursion), billed at the schedule's per-edge payload sizes, so
// the virtual times match what barrier.Predict prices.

// flood executes the collective's generator schedule with this context's
// process; the collectives read the typed payloads they need through the
// returned view. The run keeps one schedule value per key (simnet.Proc.Memo).
func (c *Ctx) flood(sem barrier.Semantics, root, msgBytes int, own any) (mpi.Flood, error) {
	s, err := c.proc.Memo(scheduleKey{sem, root, msgBytes}, func() (any, error) {
		return generator(sem, c.NProcs(), root, msgBytes)
	})
	if err != nil {
		return mpi.Flood{}, err
	}
	return mpi.CommOn(c.proc).FloodSchedule(s.(sched.Schedule), own)
}

// scheduleKey names a Ctx collective's schedule in the run's memo.
type scheduleKey struct {
	sem            barrier.Semantics
	root, msgBytes int
}

// generator builds the streamed generator schedule of the semantics.
func generator(sem barrier.Semantics, p, root, msgBytes int) (sched.Schedule, error) {
	switch sem {
	case barrier.SemBroadcast:
		return barrier.StreamBroadcast(p, root, msgBytes)
	case barrier.SemReduce:
		return barrier.StreamReduce(p, root, msgBytes)
	case barrier.SemAllReduce:
		return barrier.StreamAllReduce(p, msgBytes)
	case barrier.SemAllGather:
		return barrier.StreamAllGather(p, msgBytes)
	case barrier.SemTotalExchange:
		return barrier.StreamTotalExchange(p, msgBytes)
	}
	return nil, fmt.Errorf("bsp: no schedule generator for %s", sem)
}

// Broadcast distributes the root's data to every process by executing a
// verified broadcast schedule. Every process must pass a slice of the same
// length; the root's contents are copied into data on every other process,
// and data is returned.
func (c *Ctx) Broadcast(root int, data []float64) ([]float64, error) {
	if root < 0 || root >= c.NProcs() {
		return nil, fmt.Errorf("bsp: broadcast from invalid root %d", root)
	}
	var own any
	if c.Pid() == root {
		// Contributions flood by reference across the simulated processes;
		// hand over a private copy so the caller may mutate data after the
		// collective returns while laggard ranks are still reading it.
		own = append([]float64(nil), data...)
	}
	f, err := c.flood(barrier.SemBroadcast, root, 8*len(data), own)
	if err != nil {
		return nil, err
	}
	if c.Pid() == root {
		return data, nil
	}
	v, _ := f.Get(root)
	got, ok := v.([]float64)
	if !ok {
		return nil, fmt.Errorf("bsp: process %d never received the broadcast of process %d", c.Pid(), root)
	}
	if len(got) != len(data) {
		return nil, fmt.Errorf("bsp: broadcast of %d elements into a buffer of %d on process %d", len(got), len(data), c.Pid())
	}
	copy(data, got)
	return data, nil
}

// Reduce combines one equally sized vector per process elementwise with op by
// executing a verified reduce schedule. The root returns the combined vector
// (contributions applied in rank order); every other process returns nil.
func (c *Ctx) Reduce(root int, values []float64, op ReduceOp) ([]float64, error) {
	if root < 0 || root >= c.NProcs() {
		return nil, fmt.Errorf("bsp: reduce to invalid root %d", root)
	}
	f, err := c.flood(barrier.SemReduce, root, 8*len(values), append([]float64(nil), values...))
	if err != nil {
		return nil, err
	}
	if c.Pid() != root {
		return nil, nil
	}
	return combineVectors(f, c.NProcs(), len(values), op)
}

// AllReduce combines one equally sized vector per process elementwise with op
// by executing a verified allreduce schedule and returns the combined vector
// on every process. Contributions are applied in rank order, so the result
// is bit-identical on all processes for any operator.
func (c *Ctx) AllReduce(values []float64, op ReduceOp) ([]float64, error) {
	f, err := c.flood(barrier.SemAllReduce, 0, 8*len(values), append([]float64(nil), values...))
	if err != nil {
		return nil, err
	}
	return combineVectors(f, c.NProcs(), len(values), op)
}

// AllGather collects one block per process by executing a verified allgather
// schedule and returns the blocks indexed by rank, identical on every
// process. Blocks should be equally sized for the billed message sizes to
// match the schedule's accumulating payload model.
func (c *Ctx) AllGather(block []float64) ([][]float64, error) {
	f, err := c.flood(barrier.SemAllGather, 0, 8*len(block), append([]float64(nil), block...))
	if err != nil {
		return nil, err
	}
	out := make([][]float64, c.NProcs())
	for r := range out {
		v, _ := f.Get(r)
		got, ok := v.([]float64)
		if !ok {
			return nil, fmt.Errorf("bsp: process %d never received the block of process %d", c.Pid(), r)
		}
		out[r] = append([]float64(nil), got...)
	}
	return out, nil
}

// TotalExchange performs the all-to-all personalized exchange by executing a
// verified total-exchange schedule: blocks[j] is the vector this process
// sends to process j, and the returned slice holds, per source process, the
// vector addressed to this process.
func (c *Ctx) TotalExchange(blocks [][]float64) ([][]float64, error) {
	p := c.NProcs()
	if len(blocks) != p {
		return nil, fmt.Errorf("bsp: total exchange needs %d blocks, got %d", p, len(blocks))
	}
	blockBytes := 0
	own := make([][]float64, p)
	for j, b := range blocks {
		if 8*len(b) > blockBytes {
			blockBytes = 8 * len(b)
		}
		own[j] = append([]float64(nil), b...)
	}
	f, err := c.flood(barrier.SemTotalExchange, 0, blockBytes, own)
	if err != nil {
		return nil, err
	}
	out := make([][]float64, p)
	for src := 0; src < p; src++ {
		v, _ := f.Get(src)
		row, ok := v.([][]float64)
		if !ok {
			return nil, fmt.Errorf("bsp: process %d never received the blocks of process %d", c.Pid(), src)
		}
		if len(row) != p {
			return nil, fmt.Errorf("bsp: process %d sent %d blocks, want %d", src, len(row), p)
		}
		out[src] = append([]float64(nil), row[c.Pid()]...)
	}
	return out, nil
}

// combineVectors reduces the P per-rank vectors elementwise in rank order.
// The result is freshly allocated; flooded slices are shared across the
// simulated processes and must not be written to.
func combineVectors(f mpi.Flood, p, n int, op ReduceOp) ([]float64, error) {
	out := make([]float64, n)
	for r := 0; r < p; r++ {
		v, ok := f.Get(r)
		if !ok {
			return nil, fmt.Errorf("bsp: schedule never delivered the operand of process %d", r)
		}
		vec, ok := v.([]float64)
		if !ok {
			return nil, fmt.Errorf("bsp: operand of process %d is %T, want []float64", r, v)
		}
		if len(vec) != n {
			return nil, fmt.Errorf("bsp: operand of process %d has %d elements, want %d", r, len(vec), n)
		}
		if r == 0 {
			copy(out, vec)
			continue
		}
		for i, x := range vec {
			out[i] = op(out[i], x)
		}
	}
	return out, nil
}
