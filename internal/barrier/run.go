package barrier

import (
	"context"
	"errors"
	"fmt"

	"hbsp/internal/mpi"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/stats"
)

// baseTag is the tag space of the pattern simulator: stage s carries
// baseTag+s (see mpi.WalkSchedule on reusing it across executions).
const baseTag = 1 << 20

// Execute runs one execution of the schedule on the calling rank, mirroring
// the general simulation function of Fig. 5.5: for every stage, the receives
// and sends the stage prescribes are started together and waited for together
// (MPI_Startall / MPI_Waitall semantics); a process with no signals in a
// stage still pays the invocation overhead of the empty pair.
//
// Execute is a collective call: every rank of the run must execute the same
// schedule value. On runs with the direct engine enabled (the default), the
// ranks rendezvous at the run's gate and the whole execution is evaluated
// sequentially by the goroutine-free discrete-event evaluator, with
// bit-identical virtual times and trace events; WithConcurrentEngine (or
// simnet.EngineConcurrent) restores the concurrent per-message walk
// (mpi.WalkSchedule, pure signals). A schedule built for another rank count,
// or — on the direct engine — ranks arriving with different schedules, has
// violated the collective contract; Execute has no error to return, so it
// panics.
func Execute(c *mpi.Comm, s sched.Schedule) {
	var err error
	if g := c.Proc().SharedGate(); g != nil {
		err = executeDirect(g, c.Proc(), s)
	} else {
		err = mpi.WalkSchedule(c.Proc(), s, baseTag, true)
	}
	if err != nil {
		panic(err)
	}
}

// checkProcs refuses a schedule built for another rank count.
func checkProcs(s sched.Schedule, procs int) error {
	if s.NumProcs() != procs {
		return fmt.Errorf("barrier: pattern for %d processes on a %d-rank machine", s.NumProcs(), procs)
	}
	return nil
}

// executeDirect evaluates one execution at the run's gate: the last rank to
// arrive performs the execution's operations sequentially on every rank's
// LogGP state (sched.AtGate). Ranks arriving with different schedules are an
// error (the concurrent engine would deadlock or cross-match instead).
func executeDirect(g *simnet.Gate, p *simnet.Proc, s sched.Schedule) error {
	if err := checkProcs(s, p.Size()); err != nil {
		return err
	}
	return g.Arrive(p, s, func(tickets []any) error {
		for r, t := range tickets {
			if other, ok := t.(sched.Schedule); !ok || !mpi.SameSchedule(other, s) {
				return fmt.Errorf("barrier: rank %d executes a different pattern (Execute is collective)", r)
			}
		}
		sched.AtGate(g, p, func(ev *sched.Evaluator) { ev.ExecSchedule(s, baseTag, true) })
		return nil
	})
}

// Measurement holds the result of measuring a schedule on a simulated
// machine, following the thesis' methodology: for every repetition the
// worst-case (slowest process) duration is recorded, and the arithmetic mean
// of those worst cases is reported.
type Measurement struct {
	// Procs is the number of participating processes.
	Procs int
	// Reps is the number of measured repetitions.
	Reps int
	// WorstPerRep holds the slowest process' duration for each repetition.
	WorstPerRep []float64
	// MeanWorst is the arithmetic mean of WorstPerRep, the quantity plotted
	// in Figs. 5.6 and 5.10.
	MeanWorst float64
	// MedianWorst is the median of WorstPerRep.
	MedianWorst float64
}

// ErrNoReps is returned when a measurement is requested with no repetitions.
var ErrNoReps = errors.New("barrier: at least one repetition required")

// Measure executes the schedule reps times on the machine and gathers the
// worst-case duration of each repetition. A warm-up execution aligns the
// ranks before timing starts.
func Measure(m simnet.Machine, s sched.Schedule, reps int) (*Measurement, error) {
	return MeasureWith(m, s, reps, simnet.DefaultOptions())
}

// MeasureWith is Measure under explicit simulator options — most usefully
// the engine selection: the default options route every execution through
// the direct discrete-event evaluator, simnet.EngineConcurrent forces the
// per-message concurrent walk (the two agree bit for bit; the benchmark's
// simnet.te_concurrent_ms.p256 is this call on the concurrent engine).
func MeasureWith(m simnet.Machine, s sched.Schedule, reps int, o simnet.Options) (*Measurement, error) {
	if reps < 1 {
		return nil, ErrNoReps
	}
	if err := checkSchedule(s); err != nil {
		return nil, err
	}
	if err := checkProcs(s, m.Procs()); err != nil {
		return nil, err
	}

	durations := make([][]float64, reps)
	for r := range durations {
		durations[r] = make([]float64, m.Procs())
	}

	_, err := mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error {
		// Warm-up execution to bring all ranks to a common point.
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

	meas := &Measurement{Procs: m.Procs(), Reps: reps}
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

// MeasureAlgorithms measures the three reference barriers on the machine and
// returns the results keyed by pattern name.
func MeasureAlgorithms(m simnet.Machine, reps int) (map[string]*Measurement, error) {
	p := m.Procs()
	linear, err := Linear(p, 0)
	if err != nil {
		return nil, err
	}
	diss, err := Dissemination(p)
	if err != nil {
		return nil, err
	}
	tree, err := Tree(p)
	if err != nil {
		return nil, err
	}
	out := map[string]*Measurement{}
	for _, pat := range []*Pattern{linear, diss, tree} {
		meas, err := Measure(m, pat, reps)
		if err != nil {
			return nil, err
		}
		out[pat.Name] = meas
	}
	return out, nil
}
