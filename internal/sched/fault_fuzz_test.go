package sched_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"hbsp/internal/fault"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// FuzzFaultPlan builds a fault plan from fuzzed numbers — a slowdown (and,
// by the shape bits, a second one on the same rank from the first's end on),
// a link rule and a fail-stop — and runs it through Plan.Validate and two
// executions of a small circulant on both engines. A plan ends in an error
// wrapping fault.ErrInvalid, from Validate and from both runs alike, or in a
// run whose every time is finite and ≥ 0 and bit-identical across the
// engines; never in a panic.
func FuzzFaultPlan(f *testing.F) {
	f.Add(int64(11), uint8(6), uint8(0), int16(3), 2.0, 0.25, 0.0, 0.0, int16(-1), int16(-1), int16(-1), 2.0, 3.0, int16(0), 1e-5, 1e-6, 0.0)
	f.Add(int64(3), uint8(14), uint8(1|2|4|8), int16(2), 3.0, 0.0, 1e-6, 2e-5, int16(0), int16(-1), int16(-1), 1.5, 2.0, int16(5), 2e-5, 4e-6, 5e-6)
	f.Add(int64(5), uint8(2), uint8(2|16), int16(1), 1.0, 1.0, 0.0, 0.0, int16(-1), int16(1), int16(0), 4.0, 0.5, int16(0), 1.0, 0.0, 0.0)
	f.Add(int64(0), uint8(0), uint8(1), int16(0), 2.0, 0.0, 1e-5, 1e-5, int16(0), int16(0), int16(0), 1.0, 1.0, int16(0), 0.0, 0.0, 0.0)
	f.Add(int64(9), uint8(7), uint8(4|8), int16(20), -1.0, math.Inf(1), math.NaN(), -1.0, int16(-2), int16(99), int16(300), 0.0, math.NaN(), int16(-1), math.Inf(1), -1.0, math.NaN())
	// Every number at the bound, on a noisy machine: finite.
	f.Add(int64(1), uint8(6), uint8(2|4|8), int16(2), 1e12, 1e12, 0.0, 0.0, int16(2), int16(-1), int16(-1), 1e12, 1e12, int16(2), 1e-9, 1e12, 1e12)
	// Numbers of plans that once passed Validate and ran to +Inf: a jittered
	// slowdown, a slowdown times a link factor, a restart near MaxFloat64.
	f.Add(int64(1), uint8(6), uint8(4), int16(2), 1e300, 1e300, 0.0, 0.0, int16(-1), int16(-1), int16(-1), 1.0, 1.0, int16(3), 1e-5, 0.0, 0.0)
	f.Add(int64(1), uint8(6), uint8(2|4|8), int16(2), 1e200, 0.0, 0.0, 0.0, int16(2), int16(-1), int16(-1), 1e200, 1e200, int16(2), 1e-5, 0.0, 0.0)
	f.Add(int64(1), uint8(6), uint8(2|4|8), int16(2), 1e300, 0.0, 0.0, 0.0, int16(2), int16(-1), int16(-1), 1.0, 1.0, int16(2), 1e-9, math.MaxFloat64, 0.0)
	f.Fuzz(func(t *testing.T, seed int64, procs, shape uint8, rank int16, factor, jitter, start, end float64,
		src, dst, class int16, latF, betaF float64, failRank int16, failAt, restart, checkpoint float64) {
		p := 2 + int(procs)%15
		plan := &fault.Plan{Seed: seed, Slowdowns: []fault.Slowdown{{Rank: int(rank), Factor: factor, Jitter: jitter, Start: start, End: end}}}
		if shape&1 != 0 {
			plan.Slowdowns = append(plan.Slowdowns, fault.Slowdown{Rank: int(rank), Factor: factor, Start: end})
		}
		if shape&2 != 0 {
			plan.Links = []fault.LinkRule{{Src: int(src), Dst: int(dst), Class: int(class), LatencyFactor: latF, BetaFactor: betaF, Start: start, End: end}}
		}
		if shape&4 != 0 {
			plan.FailStops = []fault.FailStop{{Rank: int(failRank), FailAt: failAt, Restart: restart, Checkpoint: checkpoint}}
		}
		valid := plan.Validate(p)
		if valid != nil && !errors.Is(valid, fault.ErrInvalid) {
			t.Fatalf("Validate: %v does not wrap fault.ErrInvalid", valid)
		}

		s, err := sched.NewCirculant(p, []int{1, p / 2}, []int{64, 8})
		if err != nil {
			t.Fatal(err)
		}
		m := machines(t, p, seed, shape&8 != 0)
		o := simnet.DefaultOptions()
		o.AckSends = shape&16 != 0
		o.Faults = plan
		direct, errD := sched.RunSchedule(context.Background(), m, s, 2, o)
		o.Engine = simnet.EngineConcurrent
		conc, errC := simnet.RunProgram(context.Background(), m, programOf(s, 2), o)
		if valid != nil {
			if !errors.Is(errD, fault.ErrInvalid) || !errors.Is(errC, fault.ErrInvalid) {
				t.Fatalf("Validate refuses the plan (%v); RunSchedule: %v; concurrent engine: %v", valid, errD, errC)
			}
			return
		}
		if errD != nil || errC != nil {
			t.Fatalf("a valid plan: RunSchedule %v; concurrent engine %v", errD, errC)
		}
		for r, tm := range direct.Times {
			if !(tm >= 0) || math.IsInf(tm, 0) {
				t.Fatalf("rank %d ends at %v: %+v", r, tm, plan)
			}
		}
		diffResults(t, "fuzzed plan", conc, direct)
	})
}
