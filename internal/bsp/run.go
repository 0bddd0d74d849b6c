package bsp

import (
	"context"
	"errors"

	"hbsp/internal/simnet"
)

// RunConfig bundles everything a BSP run can be configured with. The zero
// value runs with the dissemination synchronizer and the default simulator
// options.
type RunConfig struct {
	// Sync performs the count total exchange ending every superstep; nil
	// selects the default dissemination synchronizer.
	Sync Synchronizer
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
	o := simnet.DefaultOptions()
	if cfg.Options != nil {
		o = *cfg.Options
	}
	return simnet.RunContext(ctx, m, func(p *simnet.Proc) error {
		c := newCtx(p, m)
		c.sync = sync
		return program(c)
	}, o)
}
