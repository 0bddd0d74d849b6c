package sched_test

import (
	"context"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/bsp"
	"hbsp/internal/fault"
	"hbsp/internal/mpi"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// pairExchangeSchedule is a single-stage neighbor exchange materialized as
// StaticStages, not a circulant: rank 2i and rank 2i+1 swap size bytes.
// Fault-free it refines to a single class; a fault on one rank splits off
// exactly that rank and its partner.
func pairExchangeSchedule(p, size int) *sched.StaticStages {
	st := sched.Stage{Out: make([][]int, p), In: make([][]int, p), OutBytes: make([][]int, p)}
	for i := 0; i < p; i++ {
		partner := i ^ 1
		st.Out[i] = []int{partner}
		st.In[i] = []int{partner}
		st.OutBytes[i] = []int{size}
	}
	return &sched.StaticStages{Procs: p, Stages: []sched.Stage{st}}
}

// runCollapseFaultDiff runs the schedule under CollapseAuto and CollapseOff
// with the same fault plan and requires bit-identical results; it returns the
// CollapseAuto run's collapse diagnostics.
func runCollapseFaultDiff(t *testing.T, name string, m *platform.Machine, s sched.Schedule, plan *fault.Plan) simnet.Collapse {
	t.Helper()
	oAuto := simnet.DefaultOptions()
	oAuto.Faults = plan
	resAuto, err := sched.RunSchedule(context.Background(), m, s, 2, oAuto)
	if err != nil {
		t.Fatalf("%s auto: %v", name, err)
	}
	oOff := oAuto
	oOff.SymmetryCollapse = simnet.CollapseOff
	resOff, err := sched.RunSchedule(context.Background(), m, s, 2, oOff)
	if err != nil {
		t.Fatalf("%s off: %v", name, err)
	}
	for r := range resOff.Times {
		if resAuto.Times[r] != resOff.Times[r] {
			t.Fatalf("%s rank %d: collapsed %v, per-rank %v", name, r, resAuto.Times[r], resOff.Times[r])
		}
	}
	if resAuto.MakeSpan != resOff.MakeSpan || resAuto.Messages != resOff.Messages || resAuto.Bytes != resOff.Bytes {
		t.Errorf("%s: collapsed %v/%d/%d, per-rank %v/%d/%d", name,
			resAuto.MakeSpan, resAuto.Messages, resAuto.Bytes, resOff.MakeSpan, resOff.Messages, resOff.Bytes)
	}
	return resAuto.Collapse
}

// TestCollapseUnderFaults pins the collapse/fault interaction on the uniform
// flat machine: uniform plans keep the single-class circulant collapse,
// rank-targeted plans split the degraded ranks into their own classes (or
// force per-rank fallback with reason "fault"), and every variant matches
// per-rank evaluation bit for bit.
func TestCollapseUnderFaults(t *testing.T) {
	const p = 16
	m, err := platform.FlatClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	diss, err := barrier.Dissemination(p)
	if err != nil {
		t.Fatal(err)
	}
	pairs := pairExchangeSchedule(p, 64)

	// Fault-free, the pair exchange refines to a single class.
	if c := runCollapseFaultDiff(t, "pairs-clean", m, pairs, nil); !c.Applied || c.Classes != 1 {
		t.Errorf("fault-free pair exchange: collapse = %+v, want applied with 1 class", c)
	}

	// A uniform plan (wildcard link degradation) preserves the circulant
	// single-class fast path.
	uniform := &fault.Plan{Links: []fault.LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2}}}
	if c := runCollapseFaultDiff(t, "uniform-links", m, diss, uniform); !c.Applied || c.Classes != 1 {
		t.Errorf("uniform plan on circulant: collapse = %+v, want applied with 1 class", c)
	}

	// A straggler on rank 3 splits off exactly the degraded rank and its
	// partner: {3}, {2}, {everyone else}.
	straggler := &fault.Plan{Slowdowns: []fault.Slowdown{{Rank: 3, Factor: 2}}}
	c := runCollapseFaultDiff(t, "straggler-pairs", m, pairs, straggler)
	if !c.Applied || c.Classes != 3 {
		t.Errorf("straggler on pair exchange: collapse = %+v, want applied with 3 classes", c)
	}

	// The same straggler on the dissemination circulant leaves no two ranks
	// equivalent: per-rank fallback with reason "fault".
	if c := runCollapseFaultDiff(t, "straggler-circulant", m, diss, straggler); c.Applied || c.Reason != simnet.CollapseReasonFault {
		t.Errorf("straggler on circulant: collapse = %+v, want fault fallback", c)
	}

	// A fail-stop and a rank-targeted link rule likewise split the degraded
	// pair off and still match per-rank evaluation.
	failstop := &fault.Plan{FailStops: []fault.FailStop{{Rank: 3, FailAt: 1e-5, Restart: 1e-4}}}
	if c := runCollapseFaultDiff(t, "failstop-pairs", m, pairs, failstop); !c.Applied || c.Classes != 3 {
		t.Errorf("fail-stop on pair exchange: collapse = %+v, want applied with 3 classes", c)
	}
	srcLink := &fault.Plan{Links: []fault.LinkRule{{Src: 3, Dst: -1, Class: -1, LatencyFactor: 3, BetaFactor: 3}}}
	if c := runCollapseFaultDiff(t, "srclink-pairs", m, pairs, srcLink); !c.Applied || c.Classes != 3 {
		t.Errorf("src-targeted link rule on pair exchange: collapse = %+v, want applied with 3 classes", c)
	}

	// Jittered slowdowns are rank-unique: two jittered stragglers with
	// identical rules must not share a class.
	jitter := &fault.Plan{Seed: 9, Slowdowns: []fault.Slowdown{
		{Rank: 3, Factor: 2, Jitter: 0.5},
		{Rank: 4, Factor: 2, Jitter: 0.5},
	}}
	cj := runCollapseFaultDiff(t, "jitter-pairs", m, pairs, jitter)
	if !cj.Applied || cj.Classes != 5 {
		t.Errorf("jittered stragglers: collapse = %+v, want {3},{4},{2},{5},{rest}", cj)
	}
}

// TestCollapseReasons pins every Result.Collapse.Reason string and, where
// several conditions rule collapse out at once, which one is named: the
// precedence simnet.Collapse documents — off, then the machine, then the
// schedule or the fault plan, then the recorder. Every row is asserted through
// both entries of the decision, a whole run (sched.RunSchedule) and an inline
// evaluation at a run's gate (an mpi flood of the same schedule), which must
// agree.
func TestCollapseReasons(t *testing.T) {
	const p = 16
	flat, err := platform.FlatClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	hetero, err := platform.XeonClusterMachine(p) // HeteroSpread > 0
	if err != nil {
		t.Fatal(err)
	}
	noisyProf := *platform.FlatCluster(p) // homogeneous pairs, live noise only
	noisyProf.NoiseRel = 0.01
	noisy, err := noisyProf.Machine(p)
	if err != nil {
		t.Fatal(err)
	}
	diss, err := barrier.Dissemination(p)
	if err != nil {
		t.Fatal(err)
	}
	// An asymmetric schedule: rank 0 sends to everyone, nobody replies.
	asym := &sched.StaticStages{Procs: p, Stages: []sched.Stage{func() sched.Stage {
		st := sched.Stage{Out: make([][]int, p), In: make([][]int, p)}
		for j := 1; j < p; j++ {
			st.Out[0] = append(st.Out[0], j)
			st.In[j] = []int{0}
		}
		return st
	}()}}
	off := func(o *simnet.Options) { o.SymmetryCollapse = simnet.CollapseOff }
	traced := func(o *simnet.Options) { o.Recorder = trace.NewRecorder() }
	failstop := func(o *simnet.Options) {
		o.Faults = &fault.Plan{FailStops: []fault.FailStop{{Rank: 0, FailAt: 1e-5, Restart: 1e-4}}}
	}
	for _, tc := range []struct {
		name string
		m    *platform.Machine
		s    sched.Schedule
		mods []func(*simnet.Options)
		want string // the reason; "" = applied with one class
	}{
		{"applied", flat, diss, nil, ""},
		{"off", flat, diss, []func(*simnet.Options){off}, simnet.CollapseReasonOff},
		{"hetero", hetero, diss, nil, simnet.CollapseReasonHetero},
		{"noise", noisy, diss, nil, simnet.CollapseReasonNoise},
		{"trace", flat, diss, []func(*simnet.Options){traced}, simnet.CollapseReasonTrace},
		{"asymmetric", flat, asym, nil, simnet.CollapseReasonAsymmetric},
		{"fault", flat, diss, []func(*simnet.Options){failstop}, simnet.CollapseReasonFault},

		{"off x hetero", hetero, diss, []func(*simnet.Options){off}, simnet.CollapseReasonOff},
		{"off x noise", noisy, diss, []func(*simnet.Options){off}, simnet.CollapseReasonOff},
		{"off x asymmetric", flat, asym, []func(*simnet.Options){off}, simnet.CollapseReasonOff},
		{"off x fault", flat, diss, []func(*simnet.Options){off, failstop}, simnet.CollapseReasonOff},
		{"off x trace", flat, diss, []func(*simnet.Options){off, traced}, simnet.CollapseReasonOff},

		{"trace x hetero", hetero, diss, []func(*simnet.Options){traced}, simnet.CollapseReasonHetero},
		{"trace x noise", noisy, diss, []func(*simnet.Options){traced}, simnet.CollapseReasonNoise},
		{"trace x asymmetric", flat, asym, []func(*simnet.Options){traced}, simnet.CollapseReasonAsymmetric},
		{"trace x fault", flat, diss, []func(*simnet.Options){traced, failstop}, simnet.CollapseReasonFault},
	} {
		options := func() simnet.Options { // per entry: a recorder serves one run
			o := simnet.DefaultOptions()
			for _, mod := range tc.mods {
				mod(&o)
			}
			return o
		}
		whole, err := sched.RunSchedule(context.Background(), tc.m, tc.s, 1, options())
		if err != nil {
			t.Fatalf("%s: RunSchedule: %v", tc.name, err)
		}
		atGate, err := mpi.RunContext(context.Background(), tc.m, func(c *mpi.Comm) error {
			_, err := c.FloodSchedule(tc.s, nil)
			return err
		}, options())
		if err != nil {
			t.Fatalf("%s: gate run: %v", tc.name, err)
		}
		for entry, c := range map[string]simnet.Collapse{"RunSchedule": whole.Collapse, "gate": atGate.Collapse} {
			if applied := tc.want == ""; c.Applied != applied || c.Reason != tc.want || (applied && c.Classes != 1) {
				t.Errorf("%s through %s: %+v, want reason %q", tc.name, entry, c, tc.want)
			}
		}
	}
}

// TestCollapseInfoThroughGate pins that the concurrent front-end surfaces the
// direct evaluator's collapse decision: a BSP run whose Sync is routed
// through the in-proc gate reports the gate's last collapse diagnostics in
// Result.Collapse.
func TestCollapseInfoThroughGate(t *testing.T) {
	const p = 16
	m, err := platform.FlatClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	program := func(c *bsp.Ctx) error {
		c.Compute(1e-6)
		return c.Sync()
	}
	res, err := bsp.RunContext(context.Background(), m, bsp.RunConfig{}, program)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Collapse.Applied || res.Collapse.Classes != 1 {
		t.Errorf("gate collapse = %+v, want applied with 1 class", res.Collapse)
	}

	o := simnet.DefaultOptions()
	o.Faults = &fault.Plan{FailStops: []fault.FailStop{{Rank: 0, FailAt: 1e-5, Restart: 1e-4}}}
	res, err = bsp.RunContext(context.Background(), m, bsp.RunConfig{Options: &o}, program)
	if err != nil {
		t.Fatal(err)
	}
	if res.Collapse.Applied || res.Collapse.Reason != simnet.CollapseReasonFault {
		t.Errorf("gate collapse under fail-stop = %+v, want fault fallback", res.Collapse)
	}
}
