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

// Execute runs one execution of the barrier pattern on the calling rank,
// mirroring the general simulation function of Fig. 5.5: for every stage, the
// receives and sends prescribed by the stage matrix are started together and
// waited for together (MPI_Startall / MPI_Waitall semantics); a process with
// no signals in a stage still pays the invocation overhead of the empty pair.
//
// Execute is a collective call: every rank of the run must execute the same
// pattern. On runs with the direct engine enabled (the default), the ranks
// rendezvous at the run's gate and the whole execution is evaluated
// sequentially by the goroutine-free discrete-event evaluator, with
// bit-identical virtual times and trace events; WithConcurrentEngine (or
// simnet.EngineConcurrent) restores the concurrent per-message walk
// (mpi.WalkSchedule, pure signals). A pattern built for another rank count,
// or — on the direct engine — ranks arriving with different patterns, has
// violated the collective contract; Execute has no error to return, so it
// panics.
func Execute(c *mpi.Comm, pat *Pattern) {
	var err error
	if g := c.Proc().SharedGate(); g != nil {
		err = executeDirect(g, c.Proc(), pat)
	} else {
		err = mpi.WalkSchedule(c.Proc(), pat, baseTag, true, nil)
	}
	if err != nil {
		panic(err)
	}
}

// checkProcs refuses a pattern built for another rank count.
func checkProcs(pat *Pattern, procs int) error {
	if pat.Procs != procs {
		return fmt.Errorf("barrier: pattern for %d processes on a %d-rank machine", pat.Procs, procs)
	}
	return nil
}

// executeDirect evaluates one pattern execution at the run's gate: the last
// rank to arrive performs the execution's operations sequentially on every
// rank's LogGP state (sched.AtGate). Ranks arriving with different patterns
// are an error (the concurrent engine would deadlock or cross-match instead).
func executeDirect(g *simnet.Gate, p *simnet.Proc, pat *Pattern) error {
	if err := checkProcs(pat, p.Size()); err != nil {
		return err
	}
	return g.Arrive(p, pat, func(tickets []any) error {
		for r, t := range tickets {
			if t != (any)(pat) {
				return fmt.Errorf("barrier: rank %d executes a different pattern (Execute is collective)", r)
			}
		}
		sched.AtGate(g, p, func(ev *sched.Evaluator) { ev.ExecSchedule(pat, baseTag, true) })
		return nil
	})
}

// Measurement holds the result of measuring a barrier pattern on a simulated
// machine, following the thesis' methodology: for every repetition the
// worst-case (slowest process) duration is recorded, and the arithmetic mean
// of those worst cases is reported.
type Measurement struct {
	// Pattern is the name of the measured pattern.
	Pattern string
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

// Measure executes the pattern reps times on the machine and gathers the
// worst-case duration of each repetition. A warm-up execution aligns the
// ranks before timing starts.
func Measure(m simnet.Machine, pat *Pattern, reps int) (*Measurement, error) {
	return MeasureWith(m, pat, reps, simnet.DefaultOptions())
}

// MeasureWith is Measure under explicit simulator options — most usefully
// the engine selection: the default options route every execution through
// the direct discrete-event evaluator, simnet.EngineConcurrent forces the
// per-message concurrent walk (the two agree bit for bit; the benchmark's
// simnet.te_concurrent_ms.p256 is this call on the concurrent engine).
func MeasureWith(m simnet.Machine, pat *Pattern, reps int, o simnet.Options) (*Measurement, error) {
	if reps < 1 {
		return nil, ErrNoReps
	}
	if err := pat.Validate(); err != nil {
		return nil, err
	}
	if err := checkProcs(pat, m.Procs()); err != nil {
		return nil, err
	}

	durations := make([][]float64, reps)
	for r := range durations {
		durations[r] = make([]float64, pat.Procs)
	}

	_, err := mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error {
		// Warm-up execution to bring all ranks to a common point.
		Execute(c, pat)
		for rep := 0; rep < reps; rep++ {
			start := c.Wtime()
			Execute(c, pat)
			durations[rep][c.Rank()] = c.Wtime() - start
		}
		return nil
	}, o)
	if err != nil {
		return nil, err
	}

	meas := &Measurement{Pattern: pat.Name, Procs: pat.Procs, Reps: reps}
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
