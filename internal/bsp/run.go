package bsp

import (
	"context"
	"errors"

	"hbsp/internal/simnet"
)

// SyncObserver is called by every process at the end of each Sync with the
// index of the superstep just completed and the process' virtual time in
// seconds. Observers are invoked from the per-rank simulation goroutines and
// must be safe for concurrent use.
type SyncObserver func(pid, step int, vtime float64)

// RunConfig bundles everything a BSP run can be configured with. The zero
// value runs with the dissemination synchronizer, generator-built collective
// schedules and the default simulator options.
type RunConfig struct {
	// Sync performs the count total exchange ending every superstep; nil
	// selects the default dissemination synchronizer.
	Sync Synchronizer
	// Schedules supplies the verified schedules the user-facing collectives
	// execute; nil selects the default generator-backed source. A source may be
	// shared by concurrent runs (see ScheduleSource).
	Schedules ScheduleSource
	// Observer, when non-nil, is notified at the end of every Sync.
	Observer SyncObserver
	// Options are the simulator options; nil selects simnet.DefaultOptions.
	Options *simnet.Options
}

// RunContext executes the SPMD program on every rank of the machine under an
// explicit configuration and a cancellable context: cancelling the context
// aborts the run through the simulator's teardown path with an error
// wrapping simnet.ErrAborted.
func RunContext(ctx context.Context, m Machine, cfg RunConfig, program Program) (*simnet.Result, error) {
	if m == nil {
		return nil, errors.New("bsp: nil machine")
	}
	sync := cfg.Sync
	if sync == nil {
		sync = DefaultSynchronizer()
	}
	src := cfg.Schedules
	if src == nil {
		src = defaultSchedules
	}
	schedules := &runSchedules{src: src}
	o := simnet.DefaultOptions()
	if cfg.Options != nil {
		o = *cfg.Options
	}
	return simnet.RunContext(ctx, m, func(p *simnet.Proc) error {
		c := newCtx(p, m)
		c.sync = sync
		c.schedules = schedules
		c.observer = cfg.Observer
		return program(c)
	}, o)
}
