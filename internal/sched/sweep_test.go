package sched_test

import (
	"context"
	"fmt"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/fault"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// sweepOptionsFor mirrors RunSchedule's fixed conventions (computeEmpty true,
// the schedule tag space) so sweep points diff cleanly against it.
func sweepOptionsFor(o simnet.Options) sched.SweepOptions {
	return sched.SweepOptions{
		AckSends:         o.AckSends,
		SymmetryCollapse: o.SymmetryCollapse,
		ComputeEmpty:     true,
		Faults:           o.Faults,
		Recorder:         o.Recorder,
		Deadline:         o.Deadline,
	}
}

// diffSweepPoint evaluates one point through the sweep evaluator and through
// an independent RunSchedule call and requires bit-identical everything:
// per-rank times, makespan, traffic counters and the collapse diagnostic.
func diffSweepPoint(t *testing.T, tag string, sw *sched.SweepEvaluator, m *platform.Machine, s sched.Schedule, execs int, o simnet.Options) {
	t.Helper()
	want, err := sched.RunSchedule(context.Background(), m, s, execs, o)
	if err != nil {
		t.Fatalf("%s: RunSchedule: %v", tag, err)
	}
	got, err := sw.Run(context.Background(), m, s, execs)
	if err != nil {
		t.Fatalf("%s: SweepEvaluator.Run: %v", tag, err)
	}
	if len(got.Times) != len(want.Times) {
		t.Fatalf("%s: %d times, want %d", tag, len(got.Times), len(want.Times))
	}
	for r := range want.Times {
		if got.Times[r] != want.Times[r] {
			t.Fatalf("%s rank %d: sweep %v, independent %v", tag, r, got.Times[r], want.Times[r])
		}
	}
	if got.MakeSpan != want.MakeSpan {
		t.Errorf("%s makespan: sweep %v, independent %v", tag, got.MakeSpan, want.MakeSpan)
	}
	if got.Messages != want.Messages || got.Bytes != want.Bytes {
		t.Errorf("%s traffic: sweep %d/%d, independent %d/%d",
			tag, got.Messages, got.Bytes, want.Messages, want.Bytes)
	}
	if got.Collapse != want.Collapse {
		t.Errorf("%s collapse: sweep %+v, independent %+v", tag, got.Collapse, want.Collapse)
	}
}

// sweepMachines returns the machine matrix of the golden diffs: the
// heterogeneous Xeon cluster (HeteroSpread > 0, so collapse falls back and
// the per-rank walker carries the evaluation) and the pairwise-uniform flat
// cluster (symmetry-collapsed path, memoized partitions).
func sweepMachines(t *testing.T, p int) map[string]*platform.Machine {
	t.Helper()
	hetero, err := platform.XeonClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	flat, err := platform.FlatClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*platform.Machine{"hetero": hetero, "flat": flat}
}

// TestSweepGoldenBitIdentical is the correctness bar of the sweep evaluator:
// across P from 16 to 4096, both the per-rank path (heterogeneous machine)
// and the collapsed path (uniform machine), acks on and off, a bytes-axis
// sweep over circulant and non-circulant schedules on one kept arena must
// reproduce independent RunSchedule calls bit for bit at every point —
// including the repeat of an unchanged point.
func TestSweepGoldenBitIdentical(t *testing.T) {
	for _, p := range []int{16, 256, 4096} {
		if testing.Short() && p > 256 {
			continue
		}
		for mname, m := range sweepMachines(t, p) {
			for _, ack := range []bool{true, false} {
				o := simnet.DefaultOptions()
				o.AckSends = ack
				sw, err := sched.NewSweepEvaluator(m, sweepOptionsFor(o))
				if err != nil {
					t.Fatal(err)
				}
				diss, err := barrier.Dissemination(p)
				if err != nil {
					t.Fatal(err)
				}
				bytesAxis := []int{0, 64, 1024}
				if p > 256 {
					bytesAxis = []int{64, 1024}
				}
				for _, b := range bytesAxis {
					ar, err := barrier.AllReduce(p, b)
					if err != nil {
						t.Fatal(err)
					}
					tag := mname + "/allreduce"
					diffSweepPoint(t, tag, sw, m, ar, 2, o)
					if p <= 256 {
						te, err := barrier.TotalExchange(p, b)
						if err != nil {
							t.Fatal(err)
						}
						diffSweepPoint(t, mname+"/total-exchange", sw, m, te, 2, o)
						bc, err := barrier.Broadcast(p, 0, b)
						if err != nil {
							t.Fatal(err)
						}
						diffSweepPoint(t, mname+"/broadcast", sw, m, bc, 2, o)
					}
				}
				// An unchanged point evaluated twice in a row must match both
				// times: nothing of the first evaluation may leak into the second.
				diffSweepPoint(t, mname+"/diss", sw, m, diss, 2, o)
				diffSweepPoint(t, mname+"/diss-repeat", sw, m, diss, 2, o)
				st := sw.Stats()
				if mname == "flat" && st.PartitionsReused == 0 {
					t.Errorf("p=%d %s ack=%v: no partition reuse on the collapsed path: %+v", p, mname, ack, st)
				}
				sw.Release()
			}
		}
	}
}

// TestSweepGoldenScaleAxis sweeps LogGP scalings: machines instantiated from
// scaled copies of the profile are term-compatible with the base, so the
// evaluator stays on its base (no rebase) and prices each point under that
// point's link columns — and every point must match an independent
// evaluation bit for bit.
func TestSweepGoldenScaleAxis(t *testing.T) {
	for _, p := range []int{16, 256} {
		base := platform.XeonCluster((p + 7) / 8)
		bm, err := base.Machine(p)
		if err != nil {
			t.Fatal(err)
		}
		o := simnet.DefaultOptions()
		sw, err := sched.NewSweepEvaluator(bm, sweepOptionsFor(o))
		if err != nil {
			t.Fatal(err)
		}
		te, err := barrier.TotalExchange(p, 64)
		if err != nil {
			t.Fatal(err)
		}
		scales := []struct {
			name                string
			lat, gap, beta, ovh float64
		}{
			{"identity", 1, 1, 1, 1},
			{"latx2", 2, 1, 1, 1},
			{"gapx0.5", 1, 0.5, 1, 1},
			{"betax4", 1, 1, 4, 1},
			{"ovhx3", 1, 1, 1, 3},
			{"all", 1.5, 1.5, 1.5, 1.5},
		}
		for _, sc := range scales {
			pm, err := base.Scaled(sc.lat, sc.gap, sc.beta, sc.ovh).Machine(p)
			if err != nil {
				t.Fatal(err)
			}
			diffSweepPoint(t, "scale/"+sc.name, sw, pm, te, 2, o)
		}
		if st := sw.Stats(); st.Rebases != 0 {
			t.Errorf("p=%d: scaled machines must not rebase the evaluator: %+v", p, st)
		}
		sw.Release()
	}
}

// TestSweepGoldenFaults repeats the diff under fault plans — uniform link
// degradation, a straggler, a fail-stop and deterministic jitter — which
// force the per-rank fallback, with the plan compiled once per evaluator.
func TestSweepGoldenFaults(t *testing.T) {
	p := 64
	plans := map[string]*fault.Plan{
		"links":     {Links: []fault.LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2}}},
		"straggler": {Slowdowns: []fault.Slowdown{{Rank: 3, Factor: 2}}},
		"failstop":  {FailStops: []fault.FailStop{{Rank: 3, FailAt: 1e-5, Restart: 1e-4}}},
		"srclink":   {Links: []fault.LinkRule{{Src: 3, Dst: -1, Class: -1, LatencyFactor: 3, BetaFactor: 3}}},
	}
	for mname, m := range sweepMachines(t, p) {
		for pname, plan := range plans {
			o := simnet.DefaultOptions()
			o.Faults = plan
			sw, err := sched.NewSweepEvaluator(m, sweepOptionsFor(o))
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range []int{0, 64, 256} {
				te, err := barrier.TotalExchange(p, b)
				if err != nil {
					t.Fatal(err)
				}
				diffSweepPoint(t, mname+"/"+pname+"/te", sw, m, te, 2, o)
			}
			diss, err := barrier.Dissemination(p)
			if err != nil {
				t.Fatal(err)
			}
			diffSweepPoint(t, mname+"/"+pname+"/diss", sw, m, diss, 2, o)
			sw.Release()
		}
	}
}

// TestSweepGoldenNoisy diffs a noisy machine across a run-seed axis,
// returning to an earlier seed twice: every point draws its jitter from its
// own machine and must match independent evaluation exactly.
func TestSweepGoldenNoisy(t *testing.T) {
	p := 64
	base := platform.Xeon8x2x4() // NoiseRel > 0
	bm, err := base.Machine(p)
	if err != nil {
		t.Fatal(err)
	}
	o := simnet.DefaultOptions()
	sw, err := sched.NewSweepEvaluator(bm, sweepOptionsFor(o))
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Release()
	te, err := barrier.TotalExchange(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3, 2} {
		pm := bm.WithRunSeed(seed)
		diffSweepPoint(t, "noisy", sw, pm, te, 2, o)
	}
	diffSweepPoint(t, "noisy-repeat", sw, bm.WithRunSeed(2), te, 2, o)
}

// TestSweepGoldenTraced attaches a recorder to both paths: every point of a
// traced sweep must produce the identical event stream an independent traced
// RunSchedule produces, run for run.
func TestSweepGoldenTraced(t *testing.T) {
	p := 16
	for mname, m := range sweepMachines(t, p) {
		recSweep := trace.NewRecorder()
		oSweep := simnet.DefaultOptions()
		oSweep.Recorder = recSweep
		sw, err := sched.NewSweepEvaluator(m, sweepOptionsFor(oSweep))
		if err != nil {
			t.Fatal(err)
		}
		recRef := trace.NewRecorder()
		oRef := simnet.DefaultOptions()
		oRef.Recorder = recRef

		for _, b := range []int{0, 64, 64} {
			te, err := barrier.TotalExchange(p, b)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sched.RunSchedule(context.Background(), m, te, 2, oRef)
			if err != nil {
				t.Fatal(err)
			}
			got, err := sw.Run(context.Background(), m, te, 2)
			if err != nil {
				t.Fatal(err)
			}
			for r := range want.Times {
				if got.Times[r] != want.Times[r] {
					t.Fatalf("%s traced bytes=%d rank %d: sweep %v, independent %v", mname, b, r, got.Times[r], want.Times[r])
				}
			}
		}
		if s, w := eventStream(t, recSweep), eventStream(t, recRef); s != w {
			t.Errorf("%s: traced sweep event stream differs from independent runs", mname)
		}
		sw.Release()
	}
}

// TestSweepCollapseOff forces per-rank evaluation on a machine that would
// otherwise collapse, pinning the CollapseOff option through the sweep path.
func TestSweepCollapseOff(t *testing.T) {
	p := 64
	m, err := platform.FlatClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	o := simnet.DefaultOptions()
	o.SymmetryCollapse = simnet.CollapseOff
	sw, err := sched.NewSweepEvaluator(m, sweepOptionsFor(o))
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Release()
	for _, b := range []int{0, 64, 1024} {
		te, err := barrier.TotalExchange(p, b)
		if err != nil {
			t.Fatal(err)
		}
		diffSweepPoint(t, "collapse-off", sw, m, te, 2, o)
	}
}

// TestSweepArenaReuse runs point sequences chosen to leave stale state behind
// on a kept evaluator — whatever a point writes that the next one fails to
// reset or overwrite (rank states, inbox and send-completion scratch, traffic
// counters) or wrongly inherits (a memoized partition) shows up as a diff
// against an independent RunSchedule call of that next point.
func TestSweepArenaReuse(t *testing.T) {
	const p = 64
	hetero, err := platform.XeonClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	homog, err := platform.XeonClusterHomogeneousMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	mustSchedule := func(s sched.Schedule, err error) sched.Schedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	circ := func(size int, offs ...int) sched.Schedule {
		sizes := make([]int, len(offs))
		for k := range sizes {
			sizes[k] = size
		}
		return mustSchedule(sched.NewCirculant(p, offs, sizes))
	}
	offs, sizes := make([]int, p-1), make([]int, p-1)
	for k := 1; k < p; k++ {
		offs[k-1], sizes[k-1] = k, 64
	}
	tail := append([]int(nil), sizes...)
	tail[len(tail)-1] = 4096

	te := mustSchedule(barrier.TotalExchange(p, 64))
	ring := mustSchedule(barrier.AllGatherRing(p, 64))
	type point struct {
		s     sched.Schedule
		execs int
	}
	for _, seq := range []struct {
		name   string
		m      *platform.Machine
		points []point
	}{
		// Two structures with different stage counts and in-degrees, back and
		// forth: each point inherits the other's scratch.
		{"alternating-structures", hetero, []point{{te, 2}, {ring, 2}, {te, 2}, {ring, 2}, {te, 2}, {ring, 2}}},
		// Same offsets (one memo key), only the last stage's payload differs:
		// the second point must not answer with the first point's tail.
		{"tail-change", hetero, []point{
			{mustSchedule(sched.NewCirculant(p, offs, sizes)), 1},
			{mustSchedule(sched.NewCirculant(p, offs, tail)), 1},
		}},
		// On the homogeneous multi-core machine the partition depends on the
		// offsets (4, 1 and 32 classes here): a point must get the partition of
		// its own offset sequence, shared only across payload sizes.
		{"partition-per-offsets", homog, []point{
			{circ(64, 8), 1}, {circ(64, 1), 1}, {circ(1024, 8), 1}, {circ(64, 1, 2, 4, 8, 16, 32), 2}, {circ(0, 8), 1},
		}},
	} {
		t.Run(seq.name, func(t *testing.T) {
			o := simnet.DefaultOptions()
			sw, err := sched.NewSweepEvaluator(seq.m, sweepOptionsFor(o))
			if err != nil {
				t.Fatal(err)
			}
			defer sw.Release()
			for i, pt := range seq.points {
				diffSweepPoint(t, fmt.Sprintf("%s/point%d", seq.name, i), sw, seq.m, pt.s, pt.execs, o)
			}
		})
	}
}

// TestSweepMixedCollapse alternates, on one kept evaluator and one flat
// machine, points that collapse (circulant schedules: one class state) and
// points that walk every rank (a rooted broadcast), so each point starts on
// an arena the other kind left behind — class states after per-rank states
// and back. Every point must match an independent RunSchedule bit for bit,
// with the collapse on and with it off, and the two modes must agree.
func TestSweepMixedCollapse(t *testing.T) {
	const p = 256
	m, err := platform.FlatClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	must := func(s sched.Schedule, err error) sched.Schedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	points := []sched.Schedule{
		must(barrier.Dissemination(p)),
		must(barrier.Broadcast(p, 3, 64)),
		must(sched.NewCirculant(p, []int{1, 2, 4, 8, 16, 32, 64, 128}, nil)),
		must(barrier.Broadcast(p, 0, 4096)),
		must(barrier.Dissemination(p)),
	}
	ctx := context.Background()
	var times [2][][]float64
	for mode, collapse := range []simnet.CollapseMode{simnet.CollapseAuto, simnet.CollapseOff} {
		o := simnet.DefaultOptions()
		o.SymmetryCollapse = collapse
		sw, err := sched.NewSweepEvaluator(m, sweepOptionsFor(o))
		if err != nil {
			t.Fatal(err)
		}
		for i, s := range points {
			tag := fmt.Sprintf("mode %d point %d", collapse, i)
			diffSweepPoint(t, tag, sw, m, s, 2, o)
			res, err := sw.Run(ctx, m, s, 2)
			if err != nil {
				t.Fatal(err)
			}
			if _, circulant := sched.AsCirculant(s); res.Collapse.Applied != (circulant && collapse == simnet.CollapseAuto) {
				t.Errorf("%s: collapse %+v", tag, res.Collapse)
			}
			times[mode] = append(times[mode], res.Times)
		}
		sw.Release()
	}
	for i := range points {
		for r, at := range times[0][i] {
			if at != times[1][i][r] {
				t.Fatalf("point %d rank %d: %v collapsed, %v per rank", i, r, at, times[1][i][r])
			}
		}
	}
}
