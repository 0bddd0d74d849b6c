package bench

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
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
					t.Errorf("%s(%d,%d): gate %.17g, concurrent %.17g", name, i, j, got.At(i, j), want.At(i, j))
				}
				diff++
			}
		}
	}
	if diff > 1 {
		t.Errorf("%s: %d entries differ", name, diff)
	}
}

// TestMeasurePairwiseEnginesAgree diffs the gate evaluation of the pairwise
// benchmark against the concurrent walk it replaces: matrices bit for bit,
// clocks, traffic counters and — on traced runs — every lane event for event.
// The memo row is the machine a series hands the benchmark (a noise-draw memo
// read through the ranks' windows), traced and under the straggler plan.
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
					// them suffice beside the traced table.
					for _, traced := range []bool{true, false} {
						if !traced && p != 3 && p != 24 || mc.memo && (!traced || plan == nil) {
							continue
						}
						name := fmt.Sprintf("p%d/%s/ack=%t/faults=%t/traced=%t", p, mc.name, ack, plan != nil, traced)
						t.Run(name, func(t *testing.T) {
							run := func(e simnet.Engine) (*PairwiseResult, *simnet.Result, *trace.Trace) {
								o := simnet.Options{AckSends: ack, Engine: e, Deadline: time.Minute, Faults: plan}
								if traced {
									o.Recorder = trace.NewRecorder()
								}
								res, sim, err := measurePairwise(context.Background(), m, opts, o)
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
							got, gotSim, gotTr := run(simnet.EngineAuto)
							want, wantSim, wantTr := run(simnet.EngineConcurrent)
							sameBits(t, "Latency", got.Latency, want.Latency)
							sameBits(t, "Overhead", got.Overhead, want.Overhead)
							sameBits(t, "Beta", got.Beta, want.Beta)
							if !slices.Equal(gotSim.Times, wantSim.Times) {
								t.Errorf("Times differ: gate %v, concurrent %v", gotSim.Times, wantSim.Times)
							}
							if gotSim.Messages != wantSim.Messages || gotSim.Bytes != wantSim.Bytes {
								t.Errorf("traffic: gate %d msgs / %d B, concurrent %d / %d",
									gotSim.Messages, gotSim.Bytes, wantSim.Messages, wantSim.Bytes)
							}
							if wantMsgs := int64(p * (p - 1) * 32); wantSim.Messages != wantMsgs {
								t.Errorf("concurrent run sent %d messages, want %d", wantSim.Messages, wantMsgs)
							}
							if !traced {
								return
							}
							for r := 0; r < p; r++ {
								g, w := gotTr.LaneEvents(r), wantTr.LaneEvents(r)
								if len(g) != len(w) {
									t.Fatalf("lane %d: gate recorded %d events, concurrent %d", r, len(g), len(w))
								}
								for k := range w {
									if g[k] != w[k] {
										t.Fatalf("lane %d event %d: gate %+v, concurrent %+v", r, k, g[k], w[k])
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

// TestPairwisePricesEachPairOnce holds the gate evaluation to one price per
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

// TestPairwiseGateRejectsDifferingOptions breaks the collective contract:
// the leader answers every rank with an error where the concurrent walk would
// block until the deadline.
func TestPairwiseGateRejectsDifferingOptions(t *testing.T) {
	m := quietMachine(t, 4)
	res := &PairwiseResult{Latency: matrix.NewDense(4, 4), Overhead: matrix.NewDense(4, 4), Beta: matrix.NewDense(4, 4)}
	start := time.Now()
	_, err := simnet.RunContext(context.Background(), m, func(p *simnet.Proc) error {
		opts := engineTestOptions()
		if p.Rank() == 2 {
			opts.Sizes = []int{0, 1024, 4096}
		}
		return pairwiseOnRank(p, opts, res)
	}, simnet.Options{AckSends: true, Deadline: 30 * time.Second})
	if err == nil || !strings.Contains(err.Error(), "different pairwise benchmark") {
		t.Fatalf("err = %v, want the gate's collective-contract error", err)
	}
	for r := 0; r < 4; r++ {
		if !strings.Contains(err.Error(), fmt.Sprintf("rank %d:", r)) {
			t.Errorf("rank %d did not get the leader's verdict: %v", r, err)
		}
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("mismatch took %v to surface", elapsed)
	}
}

// TestMeasurePairwiseLeaderCancellable cancels a run whose leader callback
// alone would take several seconds (P=512 at the thesis' 25 samples: 261,632
// pairs, 105 M messages): the leader polls the run's cancel flag, so
// RunContext returns well inside the grace period with every rank goroutine
// unwound.
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
		t.Fatalf("cancellation took %v; the leader is not polling", elapsed)
	}
	// RunContext returns after the ranks unwound; give exiting goroutines a
	// moment to leave the scheduler's count.
	for wait := time.Now(); runtime.NumGoroutine() > before; time.Sleep(time.Millisecond) {
		if time.Since(wait) > 2*time.Second {
			t.Fatalf("%d goroutines after the aborted run, %d before", runtime.NumGoroutine(), before)
		}
	}
}

// BenchmarkMeasurePairwise times the benchmark at ModelParams' reduced sample
// count (the experiment sweeps' setting, 66 messages per pair) on the noisy
// Opteron profile, on both engines. The plain rows compute every noise draw
// (Box–Muller dominates them); the memo row reads them from a noise-draw memo
// filled by the run before it, as a series' later points do.
func BenchmarkMeasurePairwise(b *testing.B) {
	opts := DefaultPairwiseOptions()
	opts.Samples = 4
	engines := []struct {
		name   string
		engine simnet.Engine
		memo   bool
	}{{"auto", simnet.EngineAuto, false}, {"concurrent", simnet.EngineConcurrent, false}, {"auto/memo", simnet.EngineAuto, true}}
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
				o.Engine = e.engine
				b.ReportAllocs()
				var msgs int64
				for n := 0; n < b.N; n++ {
					_, sim, err := measurePairwise(context.Background(), m, opts, o)
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

// TestPairwiseEpisodeSteadyStateAllocs holds the gate leader's walk to the
// allocations of its scratch, sized by the options: they do not grow with
// the number of pairs, so an episode allocates nothing. The walk is counted
// inside the gate, where every other rank is parked, and the least of three
// walks is kept.
func TestPairwiseEpisodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations make the counts meaningless")
	}
	walkAllocs := func(p int) uint64 {
		m, err := platform.Opteron12x2x6().Machine(p)
		if err != nil {
			t.Fatal(err)
		}
		opts := engineTestOptions()
		res := &PairwiseResult{Latency: matrix.NewDense(p, p), Overhead: matrix.NewDense(p, p), Beta: matrix.NewDense(p, p)}
		least := uint64(math.MaxUint64)
		_, err = simnet.RunContext(context.Background(), m, func(proc *simnet.Proc) error {
			g := proc.SharedGate()
			return g.Arrive(proc, nil, func([]any) error {
				var err error
				sched.AtGate(g, proc, func(ev *sched.Evaluator) {
					for range 3 {
						var before, after runtime.MemStats
						runtime.ReadMemStats(&before)
						err = errors.Join(err, gateWalk(ev, proc, opts, res))
						runtime.ReadMemStats(&after)
						least = min(least, after.Mallocs-before.Mallocs)
					}
				})
				return err
			})
		}, simnet.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		return least
	}
	small, large := walkAllocs(16), walkAllocs(32)
	if large > small {
		t.Errorf("the gate walk allocated %d times at P=32 and %d at P=16: an episode allocates", large, small)
	}
	t.Logf("gate walk: %d allocations at P=16, %d at P=32", small, large)
}
