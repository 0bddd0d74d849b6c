// Package bench implements the thesis' benchmark procedures: the classic
// bspbench measurement of the scalar BSP parameters (Section 3.1, Table 3.1),
// the kernel-rate benchmark with Student-t outlier filtering (Chapter 4), and
// the pairwise latency/overhead/bandwidth benchmark that produces the P×P
// parameter matrices the barrier cost model consumes (Section 5.6.3).
//
// All benchmarks run against the virtual-time simulator, so the "measured"
// values include the run-to-run noise of the platform profile and differ
// slightly from the ground-truth matrices — exactly the relationship between
// benchmark and reality the thesis relies on.
//
// Which engine runs the pairwise benchmark is the run's own choice
// (simnet.Options.Engine), like every collective's. On the default engine the
// ranks record their diagonal overhead and rendezvous at the run's gate, and
// the last arriver evaluates all P(P−1) pair episodes itself: a strict
// ping-pong gives goroutines nothing to overlap, so on the concurrent engine
// every one of its messages is a goroutine handoff through a mailbox — some
// 370 of 470 ns of transport the virtual-time result never sees. An episode
// takes the two ranks' LogGP kernel states from the evaluator
// (sched.Evaluator.Kernel), prices each direction once, and calls the
// kernel's Send, RecvComplete and WaitRecv on them in each rank's program
// order; the ranks' noise draws come from windows of the series' memo held in
// those states (loggp.Resolve), and the run's traffic is credited once, in
// closed form. Under simnet.EngineConcurrent each rank walks its own messages
// on its *simnet.Proc instead; that walk stays because it is the reference the
// episode is diffed against (matrices, clocks, counters and trace lanes bit
// for bit, pairwise_engine_test.go). The two texts share the pair order, the
// medians and the fit, and hold no LogGP arithmetic. Medians sort the holder's
// own sample scratch, and the burst's in-edges live in one scratch slice, so
// an episode allocates nothing.
package bench

import (
	"context"
	"errors"
	"fmt"
	"slices"

	"hbsp/internal/barrier"
	"hbsp/internal/loggp"
	"hbsp/internal/matrix"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/stats"
)

// PairwiseOptions configure the pairwise benchmark.
type PairwiseOptions struct {
	// Samples is the number of repetitions per pair and message size.
	Samples int
	// Sizes are the message sizes (bytes) used for the latency/bandwidth
	// regression; they must contain at least two distinct values.
	Sizes []int
	// OverheadBatch is the number of back-to-back request initiations used
	// to estimate the per-request overhead.
	OverheadBatch int
}

// DefaultPairwiseOptions keep the benchmark quick while remaining stable: the
// thesis notes that stable medians were obtained with sample sizes above 25;
// the virtual-time simulator is far less noisy, so fewer repetitions suffice.
func DefaultPairwiseOptions() PairwiseOptions {
	return PairwiseOptions{
		Samples:       5,
		Sizes:         []int{0, 4 * 1024, 16 * 1024, 64 * 1024},
		OverheadBatch: 8,
	}
}

// PairwiseResult holds the benchmarked parameter matrices.
type PairwiseResult struct {
	// Latency is the estimated P×P zero-length-message latency matrix.
	Latency *matrix.Dense
	// Overhead is the estimated P×P per-request overhead matrix, with the
	// invocation overhead on the diagonal.
	Overhead *matrix.Dense
	// Beta is the estimated P×P inverse-bandwidth matrix in s/byte.
	Beta *matrix.Dense
}

// Params converts the benchmark result into barrier cost-model parameters.
func (r *PairwiseResult) Params() barrier.Params {
	return barrier.Params{Latency: r.Latency, Overhead: r.Overhead, Beta: r.Beta}
}

// ModelParams benchmarks the machine with the pairwise procedure and returns
// the cost-model parameter matrices, capping the per-point sample count at
// reps (with a floor of two) so reduced experiment sweeps stay fast. It is
// the single entry point the experiment and adaptation layers use to obtain
// barrier.Params for a machine.
func ModelParams(m simnet.Machine, reps int) (barrier.Params, error) {
	opts := DefaultPairwiseOptions()
	if reps < opts.Samples {
		if reps < 2 {
			reps = 2
		}
		opts.Samples = reps
	}
	res, err := MeasurePairwise(m, opts)
	if err != nil {
		return barrier.Params{}, err
	}
	return res.Params(), nil
}

const (
	tagPing = 1 << 16
	tagPong = 1<<16 + 1
)

// MeasurePairwise estimates the pairwise parameter matrices by running
// overhead and ping-pong micro-benchmarks for every process pair, one pair at
// a time (Section 5.6.3). The per-request overhead is the median cost of
// initiating a batch of requests; the latency and inverse bandwidth are the
// intercept and gradient of a least-squares fit of half the round-trip time
// against the message size.
func MeasurePairwise(m simnet.Machine, opts PairwiseOptions) (*PairwiseResult, error) {
	res, _, err := measurePairwise(context.Background(), m, opts, simnet.DefaultOptions())
	return res, err
}

// measurePairwise is MeasurePairwise under explicit simulator options and a
// context; it also returns the run's clocks and traffic counters. The engine
// is the run's own (o.Engine): the tests diff the two.
func measurePairwise(ctx context.Context, m simnet.Machine, opts PairwiseOptions, o simnet.Options) (*PairwiseResult, *simnet.Result, error) {
	if m == nil || m.Procs() < 1 {
		return nil, nil, errors.New("bench: machine with at least one rank required")
	}
	if opts.Samples < 1 {
		return nil, nil, errors.New("bench: need at least one sample")
	}
	if len(opts.Sizes) < 2 {
		return nil, nil, errors.New("bench: need at least two message sizes")
	}
	if opts.OverheadBatch < 1 {
		opts.OverheadBatch = 1
	}
	p := m.Procs()
	res := &PairwiseResult{Latency: matrix.NewDense(p, p), Overhead: matrix.NewDense(p, p), Beta: matrix.NewDense(p, p)}
	run, err := simnet.RunContext(ctx, m, func(proc *simnet.Proc) error {
		return pairwiseOnRank(proc, opts, res)
	}, o)
	if err != nil {
		return nil, nil, err
	}
	return res, run, nil
}

// pairwiseOnRank is the calling rank's part of the benchmark, a collective
// call: every rank of the run makes it with the same options and the same
// result matrices.
func pairwiseOnRank(proc *simnet.Proc, opts PairwiseOptions, res *PairwiseResult) error {
	me := proc.Rank()
	// Invocation overhead: the cost of the locally observed empty operation,
	// measured directly on each rank.
	res.Overhead.Set(me, me, proc.MachineOf().SelfOverhead(me))

	if g := proc.SharedGate(); g != nil {
		return pairwiseAtGate(g, proc, opts, res)
	}
	// Every rank executes the same deterministic schedule of pair experiments
	// and participates in the ones that involve it.
	pr := newPairRun(opts, res)
	return walkPairs(proc, me, func(i, j int) error { return pr.measurePair(proc, i, j) })
}

// cancelPollPairs is the number of pair episodes a holder walks between polls
// of the run's cancel flag (≈17 k messages for the gate leader at the default
// options, a few milliseconds).
const cancelPollPairs = 256

// pairwiseAtGate evaluates the whole benchmark at the run's gate: the last
// rank to arrive imports every rank's LogGP state, runs all P(P−1) pair
// episodes sequentially in the (i, j) order the ranks walk them — so each
// rank's operations, and with them its noise draws, keep their program order
// — credits the run's traffic and exports the advanced clocks. Ranks that
// arrive with different options have violated the collective contract and
// all get the leader's error (the concurrent walk would deadlock instead).
func pairwiseAtGate(g *simnet.Gate, proc *simnet.Proc, opts PairwiseOptions, res *PairwiseResult) error {
	return g.Arrive(proc, opts, func(tickets []any) error {
		for r, t := range tickets {
			if o, ok := t.(PairwiseOptions); !ok || !o.equal(opts) {
				return fmt.Errorf("bench: rank %d runs a different pairwise benchmark (MeasurePairwise is collective)", r)
			}
		}
		var err error
		sched.AtGate(g, proc, func(ev *sched.Evaluator) { err = gateWalk(ev, proc, opts, res) })
		return err
	})
}

// gateWalk is the gate leader's part: every pair episode on the evaluator's
// kernel states, then the run's traffic, credited once. Every episode sends
// the same messages — the warm-up round trip, the overhead burst, and a round
// trip per sample and size — so the count is a closed form of the options.
func gateWalk(ev *sched.Evaluator, proc *simnet.Proc, opts PairwiseOptions, res *PairwiseResult) error {
	pr := newPairRun(opts, res)
	pr.burst = make([]loggp.Edge, opts.Samples*opts.OverheadBatch)
	if err := walkPairs(proc, -1, func(i, j int) error { return pr.episode(ev, i, j) }); err != nil {
		return err
	}
	var sizes int64
	for _, size := range opts.Sizes {
		sizes += int64(size)
	}
	s, pairs := int64(opts.Samples), int64(proc.Size()*(proc.Size()-1))
	proc.AddTraffic(pairs*(2+s*int64(opts.OverheadBatch)+2*s*int64(len(opts.Sizes))), pairs*2*s*sizes)
	return nil
}

// equal reports whether two ranks' options describe the same benchmark.
func (o PairwiseOptions) equal(b PairwiseOptions) bool {
	return o.Samples == b.Samples && o.OverheadBatch == b.OverheadBatch && slices.Equal(o.Sizes, b.Sizes)
}

// pairRun is what one holder keeps across its pair episodes: the benchmark
// being run, and scratch reused from pair to pair, sized once — Samples
// values per median, one regression point per size and, for the gate leader,
// the in-edges of an overhead burst.
type pairRun struct {
	opts            PairwiseOptions
	res             *PairwiseResult
	samples, xs, ys []float64
	burst           []loggp.Edge
}

func newPairRun(opts PairwiseOptions, res *PairwiseResult) *pairRun {
	return &pairRun{opts: opts, res: res,
		samples: make([]float64, 0, opts.Samples),
		xs:      make([]float64, 0, len(opts.Sizes)),
		ys:      make([]float64, 0, len(opts.Sizes))}
}

// walkPairs runs pair on the ordered pairs (i, j) that rank me has a part in —
// all of them when me is negative — in the (i, j) order every holder uses.
// proc is the holder's own rank: the walk polls the run's cancel flag through
// it, which is what unwinds a gate leader — nothing a leader does blocks, so
// teardown cannot wake it as it wakes a rank waiting in a receive.
func walkPairs(proc *simnet.Proc, me int, pair func(i, j int) error) error {
	p, pairs := proc.Size(), 0
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j || me >= 0 && i != me && j != me {
				continue
			}
			if pairs++; pairs%cancelPollPairs == 0 {
				proc.CheckCancelled()
			}
			if err := pair(i, j); err != nil {
				return err
			}
		}
	}
	return nil
}

// The pair procedure has two texts on one kernel. measurePair is a rank's
// own part on its *simnet.Proc, whose mailboxes price every message; episode
// is both ranks' parts at once on their kernel states. Rank i is the active
// sender, rank j echoes, and each rank's operations happen in the same order
// in both. Results are written at (i, j) only by the holder acting for rank
// i, so there are no concurrent writers. One text behind a port both engines
// implement left the gate leader an interface call, a FIFO and a traffic count
// per message; the episode pays for none of them. TestMeasurePairwiseEnginesAgree
// holds the two texts equal bit for bit.

// measurePair runs rank proc's part of the micro-benchmarks for the ordered
// pair (i, j).
func (pr *pairRun) measurePair(proc *simnet.Proc, i, j int) error {
	opts := pr.opts
	active, echo := proc.Rank() == i, proc.Rank() == j

	// Untimed warm-up round trip. Its only purpose is clock alignment: the
	// active rank cannot observe the echo before the echoing rank produced
	// it, so after the exchange rank i's clock is at least rank j's, and the
	// timed samples below are not distorted by the idle time accumulated
	// while other pairs were being measured.
	if active {
		proc.Post(j, tagPing, 0, nil)
		proc.Recv(j, tagPong)
	}
	if echo {
		proc.Recv(i, tagPing)
		proc.Post(i, tagPong, 0, nil)
	}

	// Per-request overhead: rank i starts a batch of fire-and-forget
	// requests and divides the observed local time by the batch size;
	// rank j drains them.
	if active {
		samples := pr.samples[:0]
		for s := 0; s < opts.Samples; s++ {
			start := proc.Now()
			for k := 0; k < opts.OverheadBatch; k++ {
				proc.Post(j, tagPing, 0, nil)
			}
			samples = append(samples, (proc.Now()-start)/float64(opts.OverheadBatch))
		}
		if err := pr.overhead(i, j, samples); err != nil {
			return err
		}
	}
	if echo {
		for n := opts.Samples * opts.OverheadBatch; n > 0; n-- {
			proc.Recv(i, tagPing)
		}
	}

	// Latency and inverse bandwidth: ping-pong round trips over growing
	// message sizes; half the round trip regressed against the size.
	pr.xs, pr.ys = pr.xs[:0], pr.ys[:0]
	for _, size := range opts.Sizes {
		samples := pr.samples[:0]
		for s := 0; s < opts.Samples; s++ {
			if active {
				start := proc.Now()
				proc.Post(j, tagPing, size, nil)
				proc.Recv(j, tagPong)
				samples = append(samples, (proc.Now()-start)/2)
			} else {
				proc.Recv(i, tagPing)
				proc.Post(i, tagPong, size, nil)
			}
		}
		if active {
			if err := pr.point(size, samples); err != nil {
				return err
			}
		}
	}
	if !active {
		return nil
	}
	return pr.fit(i, j)
}

// episode runs both ranks' parts of measurePair for the ordered pair (i, j)
// on their kernel states: each direction priced once, the messages in flight
// held in place (a lone ping or pong is consumed before the next is sent;
// the burst is drained after it is posted).
func (pr *pairRun) episode(ev *sched.Evaluator, i, j int) error {
	opts := pr.opts
	si, env := ev.Kernel(i)
	sj, _ := ev.Kernel(j)
	pij, pji := ev.Price(i, j), ev.Price(j, i)
	var ping, pong loggp.Edge

	si.Send(env, i, j, tagPing, 0, &pij, &ping)
	recvOn(env, sj, j, i, tagPing, &ping)
	sj.Send(env, j, i, tagPong, 0, &pji, &pong)
	recvOn(env, si, i, j, tagPong, &pong)

	samples, burst := pr.samples[:0], pr.burst
	for s := 0; s < opts.Samples; s++ {
		start := si.Now
		for k := 0; k < opts.OverheadBatch; k++ {
			si.Send(env, i, j, tagPing, 0, &pij, &burst[s*opts.OverheadBatch+k])
		}
		samples = append(samples, (si.Now-start)/float64(opts.OverheadBatch))
	}
	if err := pr.overhead(i, j, samples); err != nil {
		return err
	}
	for k := range burst {
		recvOn(env, sj, j, i, tagPing, &burst[k])
	}

	pr.xs, pr.ys = pr.xs[:0], pr.ys[:0]
	for _, size := range opts.Sizes {
		samples := pr.samples[:0]
		for s := 0; s < opts.Samples; s++ {
			start := si.Now
			si.Send(env, i, j, tagPing, size, &pij, &ping)
			recvOn(env, sj, j, i, tagPing, &ping)
			sj.Send(env, j, i, tagPong, size, &pji, &pong)
			recvOn(env, si, i, j, tagPong, &pong)
			samples = append(samples, (si.Now-start)/2)
		}
		if err := pr.point(size, samples); err != nil {
			return err
		}
	}
	return pr.fit(i, j)
}

// recvOn is a blocking receive on rank's kernel state of the message in,
// which src sent with tag: posted at the rank's clock, waited for at once.
func recvOn(env *loggp.Env, st *loggp.State, rank, src, tag int, in *loggp.Edge) {
	completeAt, gated := st.RecvComplete(st.Now, in)
	st.WaitRecv(env, rank, completeAt, src, tag, in, gated)
}

// overhead records (i, j)'s per-request overhead: the median burst sample.
func (pr *pairRun) overhead(i, j int, samples []float64) error {
	med, err := stats.MedianInPlace(samples)
	if err != nil {
		return err
	}
	pr.res.Overhead.Set(i, j, med)
	return nil
}

// point adds one size's regression point: the median half round trip.
func (pr *pairRun) point(size int, samples []float64) error {
	med, err := stats.MedianInPlace(samples)
	if err != nil {
		return err
	}
	pr.xs, pr.ys = append(pr.xs, float64(size)), append(pr.ys, med)
	return nil
}

// fit records (i, j)'s latency and inverse bandwidth, the intercept (less the
// overhead) and the gradient of the regression points.
func (pr *pairRun) fit(i, j int) error {
	fit, err := stats.LinearFit(pr.xs, pr.ys)
	if err != nil {
		return fmt.Errorf("bench: pair (%d,%d): %w", i, j, err)
	}
	latency := fit.Intercept - pr.res.Overhead.At(i, j)
	if latency < 0 {
		latency = fit.Intercept
	}
	b := fit.Gradient
	if b < 0 {
		b = 0
	}
	pr.res.Latency.Set(i, j, latency)
	pr.res.Beta.Set(i, j, b)
	return nil
}
