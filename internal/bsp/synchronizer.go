package bsp

import (
	"context"
	"fmt"
	"sync"

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
	// a stage are knowledge-determined, never data-determined) — the same
	// value for every superstep of a run, which keys the partition cache.
	exchangeSchedule(p int) (sched.Schedule, error)
}

// disseminationSync is the default synchronizer: the ⌈log2 P⌉-stage
// dissemination exchange with doubling payloads of Section 6.5. The exchange
// of each process count is one immutable streamed circulant — O(log P) state
// at any P — cached so that every run and every superstep hands the evaluator
// the same value (its partition cache is keyed by it). The cache is bounded
// by dropping everything: a run in flight that loses its entry derives an
// equal circulant again, which costs it one partition-cache miss.
type disseminationSync struct {
	mu  sync.Mutex
	byP map[int]*sched.Circulant
}

// maxExchangeSchedules bounds the default synchronizer's schedule cache.
const maxExchangeSchedules = 64

// exchangeSchedule returns the dissemination exchange for p ranks: stage
// offsets 2^s, payload sizes the header plus the min(2^s, p) count rows the
// sender holds entering the stage.
func (d *disseminationSync) exchangeSchedule(p int) (sched.Schedule, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.byP[p]; ok {
		return s, nil
	}
	var offs, sizes []int
	known := 1 // rows held entering the stage: min(2^s, p)
	for dist := 1; dist < p; dist *= 2 {
		offs = append(offs, dist)
		sizes = append(sizes, headerBytes+known*p*countEntryBytes)
		if known *= 2; known > p {
			known = p
		}
	}
	s, err := sched.NewCirculant(p, offs, sizes)
	if err != nil {
		return nil, err
	}
	if d.byP == nil || len(d.byP) >= maxExchangeSchedules {
		d.byP = map[int]*sched.Circulant{}
	}
	d.byP[p] = s
	return s, nil
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
	return defaultSync.exchangeSchedule(p)
}

// defaultSync is the shared default synchronizer instance; sharing it lets
// every run reuse the cached exchange schedules.
var defaultSync = &disseminationSync{}

// DefaultSynchronizer returns the dissemination synchronizer the runtime uses
// when none is configured.
func DefaultSynchronizer() Synchronizer { return defaultSync }

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

func (s *scheduleSync) exchangeSchedule(p int) (sched.Schedule, error) {
	if s.sized.NumProcs() != p {
		return nil, fmt.Errorf("bsp: schedule for %d processes on a %d-process run", s.sized.NumProcs(), p)
	}
	return s.sized, nil
}

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
