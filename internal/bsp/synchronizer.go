package bsp

import (
	"context"
	"fmt"

	"hbsp/internal/adapt"
	"hbsp/internal/barrier"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// Synchronizer selects the total exchange of per-pair message counts that
// ends a superstep (Section 6.4) by naming the schedule the count rows are
// flooded over: the dissemination exchange by default, or any verified
// collective schedule (NewScheduleSynchronizer), which is how model-selected
// hybrid patterns from internal/adapt reach the runtime. The interface is
// closed — only this package implements it: the exchange itself
// (Ctx.runExchange) is the runtime's, a synchronizer only says over which
// edges and at which sizes.
type Synchronizer interface {
	// exchangeSchedule returns the exchange's exact op-stream for p ranks,
	// every payload size resolved up front (the count rows a rank forwards at
	// a stage are knowledge-determined, never data-determined). A run asks
	// once and keeps the value in its memo (simnet.Proc.Memo), so every
	// superstep of the run executes the same value, which keys the evaluator's
	// partition cache.
	exchangeSchedule(p int) (sched.Schedule, error)
}

// disseminationSync is the default synchronizer: the ⌈log2 P⌉-stage
// dissemination exchange with doubling payloads of Section 6.5, one immutable
// streamed circulant — O(log P) state at any P.
type disseminationSync struct{}

// exchangeSchedule returns the dissemination exchange for p ranks: stage
// offsets 2^s, payload sizes the header plus the 2^s count rows the sender
// holds entering the stage.
func (disseminationSync) exchangeSchedule(p int) (sched.Schedule, error) {
	return sched.Dissemination(p, func(dist int) int { return headerBytes + dist*p*countEntryBytes })
}

// ExchangeSchedule returns the default dissemination count-exchange schedule
// for p ranks — the exact op-stream Sync evaluates per superstep, with every
// payload size resolved up front. Exported so direct RunSchedule sweeps (and
// the benchmark's sched.collapsed_sync_ms at P=2^20) can evaluate the superstep
// count exchange without spawning a concurrent run.
func ExchangeSchedule(p int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("bsp: count exchange with p=%d", p)
	}
	return disseminationSync{}.exchangeSchedule(p)
}

// DefaultSynchronizer returns the dissemination synchronizer the runtime uses
// when none is configured.
func DefaultSynchronizer() Synchronizer { return disseminationSync{} }

// scheduleSync exchanges the counts over an arbitrary schedule that passes
// the all-pairs knowledge recursion, so the count map is complete on every
// process after the last stage. sized is that schedule with every out-edge at
// the header plus the count rows its sender holds entering the stage
// (barrier.KnowledgeSized): one immutable value every rank of every run reads.
type scheduleSync struct {
	sized sched.Schedule
}

// NewScheduleSynchronizer wraps a collective schedule — a pattern's edge lists
// or a streamed one — as a count-exchange synchronizer. The schedule must pass
// the all-pairs knowledge recursion (barrier/allgather-style semantics):
// rooted broadcast or reduce schedules cannot deliver the full count map and
// are rejected, as is a missing schedule.
func NewScheduleSynchronizer(s sched.Schedule) (Synchronizer, error) {
	if err := barrier.VerifySchedule(s, barrier.SemBarrier, 0); err != nil {
		return nil, fmt.Errorf("bsp: schedule cannot implement the count total exchange: %w", err)
	}
	return &scheduleSync{sized: barrier.KnowledgeSized(s, headerBytes, s.NumProcs()*countEntryBytes)}, nil
}

// exchangeSchedule returns the sized schedule whatever p is: the runs refuse
// one built for another rank count (mpi.ExecSchedule on rank goroutines,
// sched.RunSupersteps for RunStatic).
func (s *scheduleSync) exchangeSchedule(int) (sched.Schedule, error) { return s.sized, nil }

// NewAdaptedSynchronizer runs the model-driven construction of Chapter 7 on
// the supplied parameter matrices, costs every candidate with the count
// payload it would carry (adapt.GreedySync), and wraps the winner as a
// runtime synchronizer. It returns the adaptation result so callers can
// report the ranking.
func NewAdaptedSynchronizer(params barrier.Params, opts barrier.CostOptions) (Synchronizer, *adapt.Result, error) {
	res, err := adapt.GreedySync(params, opts, countEntryBytes)
	if err != nil {
		return nil, nil, err
	}
	sync, err := NewScheduleSynchronizer(res.Best.Pattern)
	if err != nil {
		return nil, nil, err
	}
	return sync, res, nil
}

// RunWith executes the SPMD program with a specific synchronizer ending every
// superstep; Run is RunWith with the default dissemination synchronizer.
func RunWith(m Machine, sync Synchronizer, program Program, opts ...simnet.Options) (*simnet.Result, error) {
	cfg := RunConfig{Sync: sync}
	if len(opts) > 0 {
		cfg.Options = &opts[0]
	}
	return RunContext(context.Background(), m, cfg, program)
}
