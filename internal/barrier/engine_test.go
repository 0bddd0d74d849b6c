package barrier

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"hbsp/internal/fault"
	"hbsp/internal/mpi"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/stats"
	"hbsp/internal/trace"
)

// enginePatterns builds the full diff matrix of schedule shapes at one
// process count: the three barriers and every payload-carrying collective.
func enginePatterns(t *testing.T, p int) map[string]*Pattern {
	t.Helper()
	out := map[string]*Pattern{}
	add := func(name string, pat *Pattern, err error) {
		if err != nil {
			t.Fatalf("%s(p=%d): %v", name, p, err)
		}
		out[name] = pat
	}
	linear, err := Linear(p, 0)
	add("linear", linear, err)
	diss, err := Dissemination(p)
	add("dissemination", diss, err)
	tree, err := Tree(p)
	add("tree", tree, err)
	for name, pat := range map[string]func() (*Pattern, error){
		"broadcast":      func() (*Pattern, error) { return Broadcast(p, 0, 96) },
		"reduce":         func() (*Pattern, error) { return Reduce(p, 0, 96) },
		"allreduce":      func() (*Pattern, error) { return AllReduce(p, 96) },
		"allgather":      func() (*Pattern, error) { return AllGather(p, 96) },
		"total-exchange": func() (*Pattern, error) { return TotalExchange(p, 96) },
	} {
		built, err := pat()
		add(name, built, err)
	}
	return out
}

func engineMachine(t *testing.T, p int, noisy bool) *platform.Machine {
	t.Helper()
	prof := platform.Xeon8x2x4()
	if !noisy {
		prof = platform.XeonCluster((p + 7) / 8)
	}
	m, err := prof.Machine(p)
	if err != nil {
		t.Fatal(err)
	}
	return m.WithRunSeed(99)
}

// measureEngine runs warm-up plus two executions of the pattern under the
// given engine, traced, returning the run's result and the merged event
// stream. computeEmpty true is Execute; false is the same pure-signal walk
// under the collectives' convention of skipping a stage the rank is idle in,
// through the entry Execute calls (mpi.ExecSchedule).
func measureEngine(t *testing.T, m simnet.Machine, pat *Pattern, engine simnet.Engine, ack, computeEmpty bool) (*simnet.Result, string) {
	t.Helper()
	rec := trace.NewRecorder()
	o := simnet.DefaultOptions()
	o.AckSends = ack
	o.Engine = engine
	o.Recorder = rec
	res, err := mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error {
		for g := 0; g < 3; g++ {
			if err := mpi.ExecSchedule(c.Proc(), pat, baseTag, computeEmpty); err != nil {
				return err
			}
		}
		return nil
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	return res, streamOf(t, rec)
}

// TestExecuteEnginesBitIdentical is the correctness bar of the direct
// evaluator: for every collective pattern, odd and power-of-two process
// counts, acks on and off, noisy and noiseless machines, the inline
// evaluation at the run's gate must reproduce the concurrent engine's
// virtual times and traffic counters bit for bit and its recorded event
// stream byte for byte. P = 6 is the walker-level case: the tree and the
// rooted collectives leave ranks idle in some stages there, and it is walked
// under both idle-stage conventions.
func TestExecuteEnginesBitIdentical(t *testing.T) {
	for _, p := range []int{1, 2, 5, 6, 8, 13, 16} {
		for _, ack := range []bool{true, false} {
			for _, noisy := range []bool{true, false} {
				m := engineMachine(t, p, noisy)
				for name, pat := range enginePatterns(t, p) {
					for _, computeEmpty := range []bool{true, false} {
						if !computeEmpty && p != 6 {
							continue
						}
						leg := fmt.Sprintf("%s p=%d ack=%v noisy=%v computeEmpty=%v", name, p, ack, noisy, computeEmpty)
						resC, evC := measureEngine(t, m, pat, simnet.EngineConcurrent, ack, computeEmpty)
						resD, evD := measureEngine(t, m, pat, simnet.EngineAuto, ack, computeEmpty)
						for r := range resC.Times {
							if resC.Times[r] != resD.Times[r] {
								t.Errorf("%s rank %d: concurrent %v, direct %v", leg, r, resC.Times[r], resD.Times[r])
							}
						}
						if resC.Messages != resD.Messages || resC.Bytes != resD.Bytes {
							t.Errorf("%s traffic: concurrent %d/%d, direct %d/%d", leg, resC.Messages, resC.Bytes, resD.Messages, resD.Bytes)
						}
						if evC != evD {
							t.Errorf("%s: traced event streams differ", leg)
						}
					}
				}
			}
		}
	}
}

// TestExecuteRefusesWrongSizedPattern: a pattern built for another rank count
// used to reach the walk unchecked — index out of range when too small, and
// when too large a concurrent run waiting until its deadline for ranks that
// do not exist. Both engines now refuse it at entry, naming both sizes.
func TestExecuteRefusesWrongSizedPattern(t *testing.T) {
	const p = 8
	m := engineMachine(t, p, false)
	for _, patProcs := range []int{4, 16} {
		pat, err := Dissemination(patProcs)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []simnet.Engine{simnet.EngineAuto, simnet.EngineConcurrent} {
			o := simnet.DefaultOptions()
			o.Engine = engine
			o.Deadline = 2 * time.Second
			want := fmt.Sprintf("for %d processes on a %d-", patProcs, p)
			for name, body := range map[string]func(c *mpi.Comm) error{
				"Execute": func(c *mpi.Comm) error { Execute(c, pat); return nil },
				"flood":   func(c *mpi.Comm) error { return c.BarrierSchedule(pat) },
			} {
				_, err := mpi.RunContext(context.Background(), m, body, o)
				if err == nil || !strings.Contains(err.Error(), want) {
					t.Errorf("%s of a %d-rank pattern on %d ranks, engine %d: error %v, want one containing %q", name, patProcs, p, engine, err, want)
				}
			}
		}
	}
}

// TestMeasureEnginesAgree pins Measure itself (the entry every experiment
// series and benchmark drives) three ways: the goroutine-free default
// (sched.Run), the gate-evaluated run it replaced (measureAtGate) and the
// concurrent engine's per-message walk — every repetition's worst case, the
// mean and the median bit for bit and, traced, the spill bytes — across rank
// counts, every pattern shape, a machine with a noise-draw memo, ack modes
// and a fault plan with a rule of every kind.
func TestMeasureEnginesAgree(t *testing.T) {
	const reps = 3
	plan := &fault.Plan{Seed: 5,
		Slowdowns: []fault.Slowdown{{Rank: 0, Factor: 1.5, Jitter: 0.2}},
		Links:     []fault.LinkRule{{Src: -1, Dst: 0, Class: -1, LatencyFactor: 2, BetaFactor: 2}},
		FailStops: []fault.FailStop{{Rank: 0, FailAt: 3e-5, Restart: 1e-4, Checkpoint: 1e-5}}}
	type measured struct {
		meas  *Measurement
		spill []byte
	}
	for _, p := range []int{1, 5, 16, 33} {
		noisy := engineMachine(t, p, true)
		memo := noisy.WithDraws(platform.NewDraws(noisy.RunSeed(), p))
		for mi, m := range []*platform.Machine{noisy, memo} {
			for name, pat := range enginePatterns(t, p) {
				for _, ack := range []bool{true, false} {
					for _, faults := range []*fault.Plan{nil, plan} {
						for _, traced := range []bool{false, true} {
							leg := fmt.Sprintf("%s p=%d memo=%t ack=%t faults=%t traced=%t", name, p, mi == 1, ack, faults != nil, traced)
							measure := func(engine simnet.Engine, body func(simnet.Machine, sched.Schedule, int, simnet.Options) (*Measurement, error)) measured {
								o := simnet.DefaultOptions()
								o.AckSends, o.Faults, o.Engine = ack, faults, engine
								if traced {
									o.Recorder = trace.NewRecorder()
								}
								meas, err := body(m, pat, reps, o)
								if err != nil {
									t.Fatalf("%s engine %d: %v", leg, engine, err)
								}
								if !traced {
									return measured{meas: meas}
								}
								return measured{meas, spillOf(t, o.Recorder)}
							}
							direct := measure(simnet.EngineAuto, MeasureWith)
							for _, ref := range []struct {
								name string
								measured
							}{
								{"gate", measure(simnet.EngineAuto, measureAtGate)},
								{"concurrent", measure(simnet.EngineConcurrent, MeasureWith)},
							} {
								if !sameMeasurement(direct.meas, ref.meas) {
									t.Errorf("%s: direct %+v, %s %+v", leg, *direct.meas, ref.name, *ref.meas)
								}
								if !bytes.Equal(direct.spill, ref.spill) {
									t.Errorf("%s: spill bytes differ from the %s run's", leg, ref.name)
								}
							}
						}
					}
				}
			}
		}
	}
}

// measureAtGate is MeasureWith's body before it ran on one evaluator: every
// rank executes the schedule under mpi.RunContext, on the default engine each
// execution evaluated at the run's gate.
func measureAtGate(m simnet.Machine, s sched.Schedule, reps int, o simnet.Options) (*Measurement, error) {
	durations := make([][]float64, reps)
	for r := range durations {
		durations[r] = make([]float64, s.NumProcs())
	}
	_, err := mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error {
		Execute(c, s)
		for rep := 0; rep < reps; rep++ {
			start := c.Wtime()
			Execute(c, s)
			durations[rep][c.Rank()] = c.Wtime() - start
		}
		return nil
	}, o)
	if err != nil {
		return nil, err
	}
	meas := &Measurement{Procs: s.NumProcs(), Reps: reps}
	meas.WorstPerRep = make([]float64, reps)
	for rep := 0; rep < reps; rep++ {
		worst := 0.0
		for _, d := range durations[rep] {
			if d > worst {
				worst = d
			}
		}
		meas.WorstPerRep[rep] = worst
	}
	meas.MeanWorst, _ = stats.Mean(meas.WorstPerRep)
	meas.MedianWorst, _ = stats.Median(meas.WorstPerRep)
	return meas, nil
}

// sameMeasurement reports whether two measurements agree bit for bit.
func sameMeasurement(a, b *Measurement) bool {
	eq := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	if a.Procs != b.Procs || a.Reps != b.Reps || !eq(a.MeanWorst, b.MeanWorst) || !eq(a.MedianWorst, b.MedianWorst) {
		return false
	}
	return slices.EqualFunc(a.WorstPerRep, b.WorstPerRep, eq)
}

// spillOf returns the spill file bytes of a finished recording.
func spillOf(t *testing.T, rec *trace.Recorder) []byte {
	t.Helper()
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteSpill(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRunScheduleMatchesConcurrentRun pins the zero-goroutine whole-run
// evaluator: sched.RunSchedule of N executions must reproduce, bit for bit,
// the per-rank times of an mpi run executing the pattern N times on the
// concurrent engine — and its traced event stream byte for byte.
func TestRunScheduleMatchesConcurrentRun(t *testing.T) {
	for _, p := range []int{1, 5, 8, 13} {
		for _, noisy := range []bool{true, false} {
			m := engineMachine(t, p, noisy)
			for name, pat := range enginePatterns(t, p) {
				recC := trace.NewRecorder()
				oC := simnet.DefaultOptions()
				oC.Engine = simnet.EngineConcurrent
				oC.Recorder = recC
				resC, err := mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error {
					for g := 0; g < 3; g++ {
						Execute(c, pat)
					}
					return nil
				}, oC)
				if err != nil {
					t.Fatal(err)
				}

				recD := trace.NewRecorder()
				oD := simnet.DefaultOptions()
				oD.Recorder = recD
				resD, err := sched.RunSchedule(context.Background(), m, pat.ScheduleView(), 3, oD)
				if err != nil {
					t.Fatal(err)
				}

				for r := range resC.Times {
					if resC.Times[r] != resD.Times[r] {
						t.Errorf("%s p=%d noisy=%v rank %d: run %v, direct %v", name, p, noisy, r, resC.Times[r], resD.Times[r])
					}
				}
				if resC.Messages != resD.Messages || resC.Bytes != resD.Bytes {
					t.Errorf("%s p=%d traffic: %d/%d vs %d/%d", name, p, resC.Messages, resC.Bytes, resD.Messages, resD.Bytes)
				}
				sc, sd := streamOf(t, recC), streamOf(t, recD)
				if sc != sd {
					t.Errorf("%s p=%d noisy=%v: traced event streams differ", name, p, noisy)
				}
			}
		}
	}
}

func streamOf(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteEvents(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestStreamTotalExchangeMatchesPattern pins the total-exchange pattern (its
// linear-shift stream wrapped) against its edge-rule literal, with and
// without the SymCirculant hint: identical stage structure and, through the
// evaluator, identical virtual times.
func TestStreamTotalExchangeMatchesPattern(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 13} {
		pat, err := TotalExchange(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		for form, literal := range generators(p, 0)["total-exchange"].literals(p) {
			adj := literal.Stages
			if pat.NumStages() != len(adj) {
				t.Fatalf("p=%d: pattern has %d stages, %s %d", p, pat.NumStages(), form, len(adj))
			}
			for s := range adj {
				st := pat.StageAt(s)
				for i := 0; i < p; i++ {
					if fmt.Sprint(st.Out[i]) != fmt.Sprint(adj[s].Out[i]) || fmt.Sprint(st.In[i]) != fmt.Sprint(adj[s].In[i]) {
						t.Fatalf("p=%d stage %d rank %d: pattern %v/%v, %s %v/%v",
							p, s, i, st.Out[i], st.In[i], form, adj[s].Out[i], adj[s].In[i])
					}
				}
			}
			m := engineMachine(t, p, true)
			resPat, err := sched.RunSchedule(context.Background(), m, pat, 2, simnet.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			resLit, err := sched.RunSchedule(context.Background(), m, literal, 2, simnet.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for r := range resPat.Times {
				if resPat.Times[r] != resLit.Times[r] {
					t.Errorf("p=%d rank %d: pattern %v, %s %v", p, r, resPat.Times[r], form, resLit.Times[r])
				}
			}
		}
	}
}

// TestConcurrentAllReduceAllocScalesWithMessages holds the concurrent engine
// to O(P + messages): an AllReduce at 4× the ranks sends 5× the
// messages and must allocate at most 6× as much. A mailbox index sized by P
// on every rank reads about 10×.
func TestConcurrentAllReduceAllocScalesWithMessages(t *testing.T) {
	o := simnet.DefaultOptions()
	o.Engine = simnet.EngineConcurrent
	alloc := func(p int) uint64 {
		m, err := platform.FlatClusterMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := AllReduce(p, 96)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error { Execute(c, s); return nil }, o); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := alloc(256), alloc(1024)
	ratio := float64(large) / float64(small)
	t.Logf("P=256 allocates %d B, P=1024 %d B: ratio %.1f", small, large, ratio)
	if ratio > 6 {
		t.Fatal("allocation grows faster than ranks plus messages")
	}
}
