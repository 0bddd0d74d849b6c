package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"hbsp/internal/fault"
	"hbsp/internal/matrix"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// engineTestOptions is a reduced benchmark (32 messages per pair) that still
// has an overhead burst deeper than one, three sizes and an even and an odd
// median.
func engineTestOptions() PairwiseOptions {
	return PairwiseOptions{Samples: 3, Sizes: []int{0, 1024, 8192}, OverheadBatch: 4}
}

// stragglerPlan is the fault scenario of the benchmark's
// fault.overhead_ratio: one persistent straggler plus a windowed wildcard link
// degradation the run outlives.
func stragglerPlan() *fault.Plan {
	return &fault.Plan{
		Slowdowns: []fault.Slowdown{{Rank: 0, Factor: 1.5}},
		Links:     []fault.LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2, Start: 0, End: 1e-3}},
	}
}

func sameBits(t *testing.T, name string, got, want *matrix.Dense) {
	t.Helper()
	diff := 0
	for i := 0; i < want.Rows(); i++ {
		for j := 0; j < want.Cols(); j++ {
			if math.Float64bits(got.At(i, j)) != math.Float64bits(want.At(i, j)) {
				if diff == 0 {
					t.Errorf("%s(%d,%d): direct %.17g, per-rank %.17g", name, i, j, got.At(i, j), want.At(i, j))
				}
				diff++
			}
		}
	}
	if diff > 1 {
		t.Errorf("%s: %d entries differ", name, diff)
	}
}

// TestMeasurePairwiseEnginesAgree diffs the benchmark's one-evaluator walk
// against the per-rank walk it replaced (measurePairwiseRanks): matrices bit
// for bit, clocks, traffic counters and — on traced runs — every lane event
// for event. The memo row is the machine a series hands the benchmark (a
// noise-draw memo read through the ranks' windows), traced and under the
// straggler plan. Fault-free rows run up to P = 64 (up to 24 under -race),
// rows under the plan up to P = 24.
func TestMeasurePairwiseEnginesAgree(t *testing.T) {
	machines := []struct {
		name string
		make func(p int) (*platform.Machine, error)
		memo bool
	}{
		{"xeon", func(p int) (*platform.Machine, error) { return platform.Xeon8x2x4().Machine(p) }, false},
		{"opteron", func(p int) (*platform.Machine, error) { return platform.Opteron12x2x6().Machine(p) }, false},
		{"flat", platform.FlatClusterMachine, false},
		{"opteron+memo", func(p int) (*platform.Machine, error) {
			m, err := platform.Opteron12x2x6().Machine(p)
			if err != nil {
				return nil, err
			}
			return m.WithDraws(platform.NewDraws(m.RunSeed(), p)), nil
		}, true},
	}
	opts := engineTestOptions()
	for _, p := range []int{1, 2, 3, 7, 24, 64} {
		for _, mc := range machines {
			m, err := mc.make(p)
			if err != nil {
				t.Fatal(err)
			}
			for _, ack := range []bool{true, false} {
				for _, plan := range []*fault.Plan{nil, stragglerPlan()} {
					// Untraced runs take the nil-lane branches; a few sizes of
					// them suffice beside the traced table. Traced runs stop at
					// P = 24 under the fault plan, and under -race fault-free
					// too: at P = 64 they were most of the package's time under
					// -race, and every branch they take is taken at 24 already.
					for _, traced := range []bool{true, false} {
						if !traced && p != 3 && p != 24 || mc.memo && (!traced || plan == nil) || traced && p > 24 && (plan != nil || raceEnabled) {
							continue
						}
						name := fmt.Sprintf("p%d/%s/ack=%t/faults=%t/traced=%t", p, mc.name, ack, plan != nil, traced)
						t.Run(name, func(t *testing.T) {
							run := func(measure pairwiseFunc) (*PairwiseResult, *simnet.Result, *trace.Trace) {
								o := simnet.Options{AckSends: ack, Deadline: time.Minute, Faults: plan}
								if traced {
									o.Recorder = trace.NewRecorder()
								}
								res, sim, err := measure(context.Background(), m, opts, o)
								if err != nil {
									t.Fatal(err)
								}
								var tr *trace.Trace
								if traced {
									if tr, err = o.Recorder.Trace(); err != nil {
										t.Fatal(err)
									}
								}
								return res, sim, tr
							}
							got, gotSim, gotTr := run(measurePairwise)
							want, wantSim, wantTr := run(measurePairwiseRanks)
							sameBits(t, "Latency", got.Latency, want.Latency)
							sameBits(t, "Overhead", got.Overhead, want.Overhead)
							sameBits(t, "Beta", got.Beta, want.Beta)
							if !slices.Equal(gotSim.Times, wantSim.Times) {
								t.Errorf("Times differ: direct %v, per-rank %v", gotSim.Times, wantSim.Times)
							}
							if gotSim.Messages != wantSim.Messages || gotSim.Bytes != wantSim.Bytes {
								t.Errorf("traffic: direct %d msgs / %d B, per-rank %d / %d",
									gotSim.Messages, gotSim.Bytes, wantSim.Messages, wantSim.Bytes)
							}
							if wantMsgs := int64(p * (p - 1) * 32); wantSim.Messages != wantMsgs {
								t.Errorf("per-rank run sent %d messages, want %d", wantSim.Messages, wantMsgs)
							}
							if !traced {
								return
							}
							for r := 0; r < p; r++ {
								g, w := gotTr.LaneEvents(r), wantTr.LaneEvents(r)
								if len(g) != len(w) {
									t.Fatalf("lane %d: direct recorded %d events, per-rank %d", r, len(g), len(w))
								}
								for k := range w {
									if g[k] != w[k] {
										t.Fatalf("lane %d event %d: direct %+v, per-rank %+v", r, k, g[k], w[k])
									}
								}
							}
						})
					}
				}
			}
		}
	}
}

// countingMachine is a machine whose pricing call counts what it prices.
type countingMachine struct {
	*platform.Machine
	pairs atomic.Int64
}

func (c *countingMachine) Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	c.pairs.Add(1)
	return c.Machine.Pair(i, j)
}

// TestPairwisePricesEachPairOnce holds the benchmark to one price per
// direction of an episode: at most two Pair calls per ordered pair, where
// pricing every message makes 32 at engineTestOptions.
func TestPairwisePricesEachPairOnce(t *testing.T) {
	const p = 12
	pm, err := platform.Xeon8x2x4().Machine(p)
	if err != nil {
		t.Fatal(err)
	}
	m := &countingMachine{Machine: pm}
	if _, _, err := measurePairwise(context.Background(), m, engineTestOptions(), simnet.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if got, most := m.pairs.Load(), int64(2*p*(p-1)); got > most {
		t.Errorf("the benchmark priced %d pairs, want at most %d (two per ordered pair)", got, most)
	}
}

// TestMeasurePairwiseLeaderCancellable cancels a run that would take several
// seconds (P=512 at the thesis' 25 samples: 261,632 pairs, 105 M messages):
// the walk polls the run every cancelPollPairs pairs, so it returns well
// inside the grace period, and it leaves no goroutine behind.
func TestMeasurePairwiseLeaderCancellable(t *testing.T) {
	m, err := platform.FlatClusterMachine(512)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	opts := DefaultPairwiseOptions()
	opts.Samples = 25
	_, _, err = measurePairwise(ctx, m, opts, simnet.DefaultOptions())
	elapsed := time.Since(start)
	if !errors.Is(err, simnet.ErrAborted) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrAborted wrapping the context's deadline", err)
	}
	if elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v; the walk is not polling", elapsed)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after the aborted run, %d before", after, before)
	}
}

// goroutineMachine is a machine whose pricing call records the most
// goroutines alive while the benchmark prices a pair.
type goroutineMachine struct {
	*platform.Machine
	most atomic.Int64
}

func (g *goroutineMachine) Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	if n := int64(runtime.NumGoroutine()); n > g.most.Load() {
		g.most.Store(n)
	}
	return g.Machine.Pair(i, j)
}

// TestMeasurePairwiseStartsNoGoroutine holds the benchmark to the calling
// goroutine: while it prices its pairs at P=64 no more goroutines are alive
// than before the call, where a goroutine per rank would add 64.
func TestMeasurePairwiseStartsNoGoroutine(t *testing.T) {
	pm, err := platform.Opteron12x2x6().Machine(64)
	if err != nil {
		t.Fatal(err)
	}
	m := &goroutineMachine{Machine: pm}
	before := int64(runtime.NumGoroutine())
	if _, _, err := measurePairwise(context.Background(), m, engineTestOptions(), simnet.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	if m.most.Load() == 0 {
		t.Fatal("the benchmark priced no pair")
	}
	if most := m.most.Load(); most > before {
		t.Errorf("%d goroutines alive while pricing, %d before the call", most, before)
	}
}

// pairwiseFunc is measurePairwise's signature, which its per-rank oracle
// shares.
type pairwiseFunc func(ctx context.Context, m simnet.Machine, opts PairwiseOptions, o simnet.Options) (*PairwiseResult, *simnet.Result, error)

// measurePairwiseRanks is the benchmark as every rank walks its own part on
// its *simnet.Proc, the mailboxes pricing every message: the oracle the
// one-evaluator walk is held to. Each rank records its diagonal, then runs
// the ordered pairs it has a part in, in the (i, j) order of the walk.
func measurePairwiseRanks(ctx context.Context, m simnet.Machine, opts PairwiseOptions, o simnet.Options) (*PairwiseResult, *simnet.Result, error) {
	p := m.Procs()
	res := &PairwiseResult{Latency: matrix.NewDense(p, p), Overhead: matrix.NewDense(p, p), Beta: matrix.NewDense(p, p)}
	run, err := simnet.RunContext(ctx, m, func(proc *simnet.Proc) error {
		me := proc.Rank()
		res.Overhead.Set(me, me, m.SelfOverhead(me))
		pr := newPairRun(opts, res)
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				if i == j || i != me && j != me {
					continue
				}
				if err := pr.measurePair(proc, i, j); err != nil {
					return err
				}
			}
		}
		return nil
	}, o)
	if err != nil {
		return nil, nil, err
	}
	return res, run, nil
}

// measurePair runs rank proc's part of the pair procedure for the ordered
// pair (i, j); episode runs both ranks' parts at once, in the same order.
func (pr *pairRun) measurePair(proc *simnet.Proc, i, j int) error {
	opts := pr.opts
	active, echo := proc.Rank() == i, proc.Rank() == j

	// Untimed warm-up round trip.
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

// BenchmarkMeasurePairwise times the benchmark at ModelParams' reduced sample
// count (the experiment sweeps' setting, 66 messages per pair) on the noisy
// Opteron profile, beside the per-rank oracle on the concurrent engine. The
// plain rows compute every noise draw (Box–Muller dominates them); the memo
// row reads them from a noise-draw memo filled by the run before it, as a
// series' later points do.
func BenchmarkMeasurePairwise(b *testing.B) {
	opts := DefaultPairwiseOptions()
	opts.Samples = 4
	engines := []struct {
		name    string
		measure pairwiseFunc
		memo    bool
	}{{"auto", measurePairwise, false}, {"concurrent", measurePairwiseRanks, false}, {"auto/memo", measurePairwise, true}}
	for _, e := range engines {
		for _, p := range []int{64, 144} {
			b.Run(fmt.Sprintf("engine=%s/P=%d", e.name, p), func(b *testing.B) {
				m, err := platform.Opteron12x2x6().Machine(p)
				if err != nil {
					b.Fatal(err)
				}
				if e.memo {
					m = m.WithDraws(platform.NewDraws(m.RunSeed(), p))
				}
				o := simnet.DefaultOptions()
				b.ReportAllocs()
				var msgs int64
				for n := 0; n < b.N; n++ {
					_, sim, err := e.measure(context.Background(), m, opts, o)
					if err != nil {
						b.Fatal(err)
					}
					msgs += sim.Messages
				}
				b.ReportMetric(float64(msgs)/b.Elapsed().Seconds(), "msgs/s")
			})
		}
	}
}

// TestPairwiseEpisodeSteadyStateAllocs holds the benchmark's walk to the
// allocations of its scratch, sized by the options before the run: they do
// not grow with the number of pairs, so an episode allocates nothing. The
// walk is counted inside the run's body, and the least of three walks is
// kept.
func TestPairwiseEpisodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make the counts meaningless")
	}
	walkAllocs := func(p int) uint64 {
		m, err := platform.Opteron12x2x6().Machine(p)
		if err != nil {
			t.Fatal(err)
		}
		res := &PairwiseResult{Latency: matrix.NewDense(p, p), Overhead: matrix.NewDense(p, p), Beta: matrix.NewDense(p, p)}
		pr := newPairRun(engineTestOptions(), res)
		least := uint64(math.MaxUint64)
		_, err = sched.Run(context.Background(), m, simnet.DefaultOptions(), func(ev *sched.Evaluator, poll func() error) error {
			for range 3 {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				if err := pr.walk(ev, m, poll); err != nil {
					return err
				}
				runtime.ReadMemStats(&after)
				least = min(least, after.Mallocs-before.Mallocs)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return least
	}
	small, large := walkAllocs(16), walkAllocs(32)
	if large > small {
		t.Errorf("the walk allocated %d times at P=32 and %d at P=16: an episode allocates", large, small)
	}
	t.Logf("walk: %d allocations at P=16, %d at P=32", small, large)
}
