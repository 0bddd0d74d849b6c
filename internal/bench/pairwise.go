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
// the last arriver evaluates all P(P−1) pair episodes on the discrete-event
// evaluator's point-to-point stepper (sched.Evaluator.PostPriced / Recv): a
// strict ping-pong gives goroutines nothing to overlap, so on the concurrent
// engine every one of its messages is a goroutine handoff through a mailbox —
// some 370 of 470 ns of transport the virtual-time result never sees. Under
// simnet.EngineConcurrent each rank walks its own messages instead; that walk
// stays because it is the reference the gate evaluation is diffed against
// (matrices, clocks, counters and trace lanes bit for bit, pairwise_engine_test.go).
// Both are the same text, measurePair, written against a port that either acts
// for one rank or for all of them. The leader's port prices each direction of
// an episode once and hands the stepper that price by pointer for every
// message (PostPriced), so the 48-byte loggp.Pair is never copied per
// message; the ranks' noise draws come from windows of the series' memo held
// in their kernel states (loggp.Resolve). Medians sort the holder's own sample
// scratch, so an episode allocates nothing.
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
	return newPairRun(procPort{proc}, opts, res).walk(proc)
}

// cancelPollPairs is the number of pair episodes a holder walks between polls
// of the run's cancel flag (≈17 k messages for the gate leader at the default
// options, a few milliseconds).
const cancelPollPairs = 256

// pairwiseAtGate evaluates the whole benchmark at the run's gate: the last
// rank to arrive imports every rank's LogGP state, runs all P(P−1) pair
// episodes sequentially in the (i, j) order the ranks walk them — so each
// rank's operations, and with them its noise draws, keep their program order
// — and exports the advanced clocks. Ranks that arrive with different options
// have violated the collective contract and all get the leader's error (the
// concurrent walk would deadlock instead).
func pairwiseAtGate(g *simnet.Gate, proc *simnet.Proc, opts PairwiseOptions, res *PairwiseResult) error {
	return g.Arrive(proc, opts, func(tickets []any) error {
		for r, t := range tickets {
			if o, ok := t.(PairwiseOptions); !ok || !o.equal(opts) {
				return fmt.Errorf("bench: rank %d runs a different pairwise benchmark (MeasurePairwise is collective)", r)
			}
		}
		var err error
		sched.AtGate(g, proc, func(ev *sched.Evaluator) {
			port := &evalPort{ev: ev}
			for d := range port.inFlight {
				port.inFlight[d].buf = make([]sched.InEdge, opts.Samples*opts.OverheadBatch)
			}
			err = newPairRun(port, opts, res).walk(proc)
		})
		return err
	})
}

// equal reports whether two ranks' options describe the same benchmark.
func (o PairwiseOptions) equal(b PairwiseOptions) bool {
	return o.Samples == b.Samples && o.OverheadBatch == b.OverheadBatch && slices.Equal(o.Sizes, b.Sizes)
}

// pairPort is what the pair procedure needs of an engine: whether the holder
// performs rank r's operations at all, the start of a pair's episode, inject
// a message, complete a blocking receive, read a clock.
type pairPort interface {
	acts(r int) bool
	episode(i, j int)
	post(src, dst, tag, size int)
	recv(dst, src, tag int)
	now(r int) float64
}

// procPort is a rank's own port in a concurrent run: it acts for that rank
// only, through the goroutine engine's mailboxes, which price every message.
type procPort struct{ p *simnet.Proc }

func (pp procPort) acts(r int) bool            { return r == pp.p.Rank() }
func (procPort) episode(int, int)              {}
func (pp procPort) post(_, dst, tag, size int) { pp.p.Post(dst, tag, size, nil) }
func (pp procPort) recv(_, src, tag int)       { pp.p.Recv(src, tag) }
func (pp procPort) now(int) float64            { return pp.p.Now() }

// evalPort is the gate leader's port: it acts for every rank on the run's
// evaluator and keeps the messages in flight between a pair itself, one FIFO
// per direction (low→high rank, high→low). A pair's tags never interleave
// within a direction, so arrival order is matching order, as in the mailbox.
// A direction is priced once per episode, a pure function of the pair, and
// its messages are posted at that price in place.
type evalPort struct {
	ev       *sched.Evaluator
	inFlight [2]edgeFIFO
}

// edgeFIFO holds one direction's in-flight messages. The procedure drains
// every burst it posts before the next, so the queue is a slice that rewinds
// when it empties; its depth never exceeds the overhead burst,
// Samples·OverheadBatch (a deeper post would index past buf and panic).
type edgeFIFO struct {
	price      loggp.Pair // the direction's price in the current episode
	buf        []sched.InEdge
	head, tail int
}

func (pt *evalPort) fifo(src, dst int) *edgeFIFO {
	if src < dst {
		return &pt.inFlight[0]
	}
	return &pt.inFlight[1]
}

func (pt *evalPort) acts(int) bool { return true }

func (pt *evalPort) episode(i, j int) {
	pt.fifo(i, j).price = pt.ev.Price(i, j)
	pt.fifo(j, i).price = pt.ev.Price(j, i)
}

func (pt *evalPort) post(src, dst, tag, size int) {
	q := pt.fifo(src, dst)
	pt.ev.PostPriced(src, dst, tag, size, &q.price, &q.buf[q.tail])
	q.tail++
}

func (pt *evalPort) recv(dst, src, tag int) {
	q := pt.fifo(src, dst)
	pt.ev.Recv(dst, src, tag, &q.buf[q.head])
	if q.head++; q.head == q.tail {
		q.head, q.tail = 0, 0
	}
}

func (pt *evalPort) now(r int) float64 { return pt.ev.Now(r) }

// pairRun is one holder's walk over pair episodes: its port, the benchmark
// being run, and sample scratch reused from pair to pair (sized once: Samples
// values per median, one regression point per size).
type pairRun struct {
	port            pairPort
	opts            PairwiseOptions
	res             *PairwiseResult
	samples, xs, ys []float64
}

func newPairRun(port pairPort, opts PairwiseOptions, res *PairwiseResult) *pairRun {
	return &pairRun{port: port, opts: opts, res: res,
		samples: make([]float64, 0, opts.Samples),
		xs:      make([]float64, 0, len(opts.Sizes)),
		ys:      make([]float64, 0, len(opts.Sizes))}
}

// walk runs the pair episodes the holder's port has a part in, in the (i, j)
// order every holder uses. proc is the holder's own rank: the walk polls the
// run's cancel flag through it, which is what unwinds a gate leader — nothing
// a leader does blocks, so teardown cannot wake it as it wakes a rank waiting
// in a receive.
func (pr *pairRun) walk(proc *simnet.Proc) error {
	p, pairs := proc.Size(), 0
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j || !(pr.port.acts(i) || pr.port.acts(j)) {
				continue
			}
			if pairs++; pairs%cancelPollPairs == 0 {
				proc.CheckCancelled()
			}
			if err := pr.measurePair(i, j); err != nil {
				return err
			}
		}
	}
	return nil
}

// measurePair runs the micro-benchmarks for the ordered pair (i, j); rank i
// is the active sender, rank j echoes. It is the only text of the procedure:
// a rank's port performs the operations of that rank and skips the peer's, the
// leader's performs both, and either way each rank's operations happen in the
// same order. Results are written at (i, j) only by the holder acting for
// rank i, so there are no concurrent writers.
func (pr *pairRun) measurePair(i, j int) error {
	pt, opts := pr.port, pr.opts
	active, echo := pt.acts(i), pt.acts(j)
	pt.episode(i, j)

	// Untimed warm-up round trip. Its only purpose is clock alignment: the
	// active rank cannot observe the echo before the echoing rank produced
	// it, so after the exchange rank i's clock is at least rank j's, and the
	// timed samples below are not distorted by the idle time accumulated
	// while other pairs were being measured.
	if active {
		pt.post(i, j, tagPing, 0)
	}
	if echo {
		pt.recv(j, i, tagPing)
		pt.post(j, i, tagPong, 0)
	}
	if active {
		pt.recv(i, j, tagPong)
	}

	// Per-request overhead: rank i starts a batch of fire-and-forget
	// requests and divides the observed local time by the batch size;
	// rank j drains them.
	if active {
		samples := pr.samples[:0]
		for s := 0; s < opts.Samples; s++ {
			start := pt.now(i)
			for k := 0; k < opts.OverheadBatch; k++ {
				pt.post(i, j, tagPing, 0)
			}
			samples = append(samples, (pt.now(i)-start)/float64(opts.OverheadBatch))
		}
		med, err := stats.MedianInPlace(samples)
		if err != nil {
			return err
		}
		pr.res.Overhead.Set(i, j, med)
	}
	if echo {
		for n := opts.Samples * opts.OverheadBatch; n > 0; n-- {
			pt.recv(j, i, tagPing)
		}
	}

	// Latency and inverse bandwidth: ping-pong round trips over growing
	// message sizes; half the round trip regressed against the size.
	xs, ys := pr.xs[:0], pr.ys[:0]
	for _, size := range opts.Sizes {
		samples := pr.samples[:0]
		for s := 0; s < opts.Samples; s++ {
			var start float64
			if active {
				start = pt.now(i)
				pt.post(i, j, tagPing, size)
			}
			if echo {
				pt.recv(j, i, tagPing)
				pt.post(j, i, tagPong, size)
			}
			if active {
				pt.recv(i, j, tagPong)
				samples = append(samples, (pt.now(i)-start)/2)
			}
		}
		if active {
			med, err := stats.MedianInPlace(samples)
			if err != nil {
				return err
			}
			xs = append(xs, float64(size))
			ys = append(ys, med)
		}
	}
	if !active {
		return nil
	}
	fit, err := stats.LinearFit(xs, ys)
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
