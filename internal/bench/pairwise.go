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
// bspbench starts no goroutine per process: it is one superstep description
// (bsp.Supersteps) that sched.RunSupersteps prices, reading each rank's clock
// through sched.Ops.Now to time the DAXPY sweep and every h-relation. A put
// is a record in the walker's reused message slice, so the procedure's
// allocations do not grow with h (TestBSPBenchFootprint).
//
// The pairwise benchmark starts no goroutine per process either: it is one
// body of the direct engine's run frame (sched.Run), which sets the diagonal
// invocation overheads and walks all P(P−1) pair episodes in (i, j) order —
// a strict ping-pong gives rank goroutines nothing to overlap. An episode
// takes the two ranks' LogGP kernel states from the evaluator
// (sched.Evaluator.Kernel), prices each direction once, and calls the
// kernel's Send, RecvComplete and WaitRecv on them in each rank's program
// order; the ranks' noise draws come from windows of the series' memo held in
// those states (loggp.Resolve), and the run's traffic is credited once, in
// closed form. The per-rank walk on *simnet.Proc the episode replaced is the
// oracle in pairwise_engine_test.go, which holds the two equal bit for bit
// (matrices, clocks, counters and trace lanes). Medians sort the run's own
// sample scratch, and the burst's in-edges live in one scratch slice, so an
// episode allocates nothing.
package bench

import (
	"context"
	"errors"
	"fmt"

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
	// regression; none may be negative, and at least two must differ.
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
// context; it also returns the run's clocks and traffic counters. o.Engine is
// ignored, as by sched.RunSchedule.
func measurePairwise(ctx context.Context, m simnet.Machine, opts PairwiseOptions, o simnet.Options) (*PairwiseResult, *simnet.Result, error) {
	if m == nil || m.Procs() < 1 {
		return nil, nil, errors.New("bench: machine with at least one rank required")
	}
	if opts.Samples < 1 {
		return nil, nil, errors.New("bench: need at least one sample")
	}
	distinct := false
	for _, size := range opts.Sizes {
		if size < 0 {
			return nil, nil, fmt.Errorf("bench: negative message size %d", size)
		}
		distinct = distinct || size != opts.Sizes[0]
	}
	if !distinct {
		return nil, nil, errors.New("bench: need at least two distinct message sizes")
	}
	if opts.OverheadBatch < 1 {
		opts.OverheadBatch = 1
	}
	p := m.Procs()
	res := &PairwiseResult{Latency: matrix.NewDense(p, p), Overhead: matrix.NewDense(p, p), Beta: matrix.NewDense(p, p)}
	pr := newPairRun(opts, res)
	run, err := sched.Run(ctx, m, o, func(ev *sched.Evaluator, poll func() error) error {
		return pr.walk(ev, m, poll)
	})
	if err != nil {
		return nil, nil, err
	}
	return res, run, nil
}

// cancelPollPairs is the number of pair episodes walked between polls of the
// run's cancellation and deadline (≈17 k messages at the default options, a
// few milliseconds).
const cancelPollPairs = 256

// walk is the run's body: every rank's invocation overhead — the cost of the
// locally observed empty operation — on the diagonal, then every pair
// episode in (i, j) order, so each rank's operations, and with them its noise
// draws, keep the program order of a rank walking its own pairs; then the
// run's traffic, credited once. Every episode sends the same messages — the
// warm-up round trip, the overhead burst, and a round trip per sample and
// size — so the count is a closed form of the options.
func (pr *pairRun) walk(ev *sched.Evaluator, m simnet.Machine, poll func() error) error {
	p, opts := m.Procs(), pr.opts
	for r := 0; r < p; r++ {
		pr.res.Overhead.Set(r, r, m.SelfOverhead(r))
	}
	pairs := 0
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				continue
			}
			if pairs++; pairs%cancelPollPairs == 0 {
				if err := poll(); err != nil {
					return err
				}
			}
			if err := pr.episode(ev, i, j); err != nil {
				return err
			}
		}
	}
	var sizes int64
	for _, size := range opts.Sizes {
		sizes += int64(size)
	}
	s, n := int64(opts.Samples), int64(pairs)
	ev.AddTraffic(n*(2+s*int64(opts.OverheadBatch)+2*s*int64(len(opts.Sizes))), n*2*s*sizes)
	return nil
}

// pairRun is what the walk keeps across its pair episodes: the benchmark
// being run, and scratch reused from pair to pair, sized once — Samples
// values per median, one regression point per size and the in-edges of an
// overhead burst.
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
		ys:      make([]float64, 0, len(opts.Sizes)),
		burst:   make([]loggp.Edge, opts.Samples*opts.OverheadBatch)}
}

// The pair procedure: rank i is the active sender and rank j echoes. An
// untimed warm-up round trip aligns the clocks — the active rank cannot
// observe the echo before the echoing rank produced it, so afterwards rank
// i's clock is at least rank j's, and the timed samples are not distorted by
// the idle time accumulated while other pairs were being measured. Then rank
// i starts Samples batches of OverheadBatch fire-and-forget requests, each
// batch's local time over its size one overhead sample, which rank j drains;
// then, per size, Samples ping-pong round trips, half of each a regression
// sample. Results are written at (i, j) only.

// episode runs both ranks' parts of the pair procedure for the ordered pair
// (i, j) on their kernel states: each direction priced once, the messages in
// flight held in place (a lone ping or pong is consumed before the next is
// sent; the burst is drained after it is posted).
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
