package sched_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/bsp"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// collapseSchedules builds the diff matrix of schedule shapes at one process
// count: every streaming generator plus the BSP count-exchange schedule.
// Expensive shapes (P−1 stages, or P edges per stage) are capped so the
// per-rank control runs stay affordable.
func collapseSchedules(t *testing.T, p int) map[string]sched.Schedule {
	t.Helper()
	out := map[string]sched.Schedule{}
	add := func(name string, s sched.Schedule, err error) {
		if err != nil {
			t.Fatalf("%s(p=%d): %v", name, p, err)
		}
		out[name] = s
	}
	var s sched.Schedule
	s, err := barrier.Dissemination(p)
	add("dissemination", s, err)
	s, err = barrier.AllReduce(p, 96)
	add("allreduce", s, err)
	s, err = barrier.AllGather(p, 96)
	add("allgather", s, err)
	s, err = bsp.ExchangeSchedule(p)
	add("count-exchange", s, err)
	if p <= 1024 {
		s, err = barrier.TotalExchange(p, 64)
		add("total-exchange", s, err)
		s, err = barrier.AllGatherRing(p, 64)
		add("allgather-ring", s, err)
		s, err = barrier.Broadcast(p, 0, 96)
		add("broadcast", s, err)
		s, err = barrier.Reduce(p, 0, 96)
		add("reduce", s, err)
	}
	return out
}

// runCollapseDiff runs the schedule once under CollapseAuto and once under
// CollapseOff and requires bit-identical per-rank times, makespan and traffic
// counters.
func runCollapseDiff(t *testing.T, name string, m *platform.Machine, s sched.Schedule, ack bool) {
	t.Helper()
	oAuto := simnet.DefaultOptions()
	oAuto.AckSends = ack
	resAuto, err := sched.RunSchedule(context.Background(), m, s, 2, oAuto)
	if err != nil {
		t.Fatalf("%s ack=%v auto: %v", name, ack, err)
	}
	oOff := oAuto
	oOff.SymmetryCollapse = simnet.CollapseOff
	resOff, err := sched.RunSchedule(context.Background(), m, s, 2, oOff)
	if err != nil {
		t.Fatalf("%s ack=%v off: %v", name, ack, err)
	}
	for r := range resOff.Times {
		if resAuto.Times[r] != resOff.Times[r] {
			t.Fatalf("%s ack=%v rank %d: collapsed %v, per-rank %v", name, ack, r, resAuto.Times[r], resOff.Times[r])
		}
	}
	if resAuto.MakeSpan != resOff.MakeSpan {
		t.Errorf("%s ack=%v makespan: collapsed %v, per-rank %v", name, ack, resAuto.MakeSpan, resOff.MakeSpan)
	}
	if resAuto.Messages != resOff.Messages || resAuto.Bytes != resOff.Bytes {
		t.Errorf("%s ack=%v traffic: collapsed %d/%d, per-rank %d/%d",
			name, ack, resAuto.Messages, resAuto.Bytes, resOff.Messages, resOff.Bytes)
	}
}

// TestCollapseGoldensBitIdentical is the correctness bar of the symmetry
// collapse: on a pairwise-uniform machine, for every schedule shape, acks on
// and off, P from 16 to 4096, collapsed evaluation must reproduce the
// per-rank evaluator's virtual times bit for bit, together with makespan and
// the message/byte counters. The circulant shapes must actually take the
// collapsed path (a single equivalence class), so the diff is never
// trivially comparing the fallback against itself. A last row, above the
// structural refinement's bound, pins that a schedule's type decides: the
// dissemination's edge lists at P = 8192 run per rank and reproduce the
// collapsed circulant's bits.
func TestCollapseGoldensBitIdentical(t *testing.T) {
	for _, p := range []int{16, 64, 256, 1024, 4096} {
		m, err := platform.FlatClusterMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range collapseSchedules(t, p) {
			switch name {
			case "dissemination", "allreduce", "allgather", "count-exchange", "total-exchange", "allgather-ring":
				part := sched.CollapseClasses(m, s)
				if part == nil || part.NumClasses() != 1 {
					t.Fatalf("p=%d %s: expected a single equivalence class, got %v", p, name, part)
				}
			}
			for _, ack := range []bool{true, false} {
				runCollapseDiff(t, name, m, s, ack)
			}
		}
	}

	const p = 8192
	m, err := platform.FlatClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	diss, err := barrier.Dissemination(p)
	if err != nil {
		t.Fatal(err)
	}
	literal := &sched.StaticStages{Procs: p, Stages: diss.Adjacency()}
	for _, ack := range []bool{true, false} {
		o := simnet.DefaultOptions()
		o.AckSends = ack
		circ, err := sched.RunSchedule(context.Background(), m, diss, 2, o)
		if err != nil {
			t.Fatal(err)
		}
		lit, err := sched.RunSchedule(context.Background(), m, literal, 2, o)
		if err != nil {
			t.Fatal(err)
		}
		if !circ.Collapse.Applied || circ.Collapse.Classes != 1 || lit.Collapse.Applied {
			t.Fatalf("p=%d ack=%v: circulant collapse %+v, edge lists %+v; want one class and per rank", p, ack, circ.Collapse, lit.Collapse)
		}
		diffResults(t, fmt.Sprintf("p=%d ack=%v circulant vs edge lists", p, ack), circ, lit)
	}
}

// TestCollapseMultiClassHomogeneous diffs the collapse on a homogeneous but
// non-uniform machine: eight ranks per node, so intra-socket, intra-node and
// network pair classes coexist and the structural refinement — not the
// circulant fast path — has to find the classes. Whatever partition it finds
// (including none), the results must match per-rank evaluation exactly.
func TestCollapseMultiClassHomogeneous(t *testing.T) {
	for _, p := range []int{16, 64, 256, 1024} {
		m, err := platform.XeonClusterHomogeneousMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		if !m.HomogeneousClasses() {
			t.Fatal("homogeneous Xeon machine reports heterogeneous classes")
		}
		for name, s := range collapseSchedules(t, p) {
			for _, ack := range []bool{true, false} {
				runCollapseDiff(t, name, m, s, ack)
			}
		}
	}
}

// permuteSchedule returns the schedule with every rank relabeled by perm:
// edge i→j becomes perm[i]→perm[j], payload sizes carried over. The result
// is materialized as StaticStages, not a circulant.
func permuteSchedule(t *testing.T, s sched.Schedule, perm []int) sched.Schedule {
	t.Helper()
	p := s.NumProcs()
	stages := make([]sched.Stage, s.NumStages())
	for k := range stages {
		src := s.StageAt(k)
		st := sched.Stage{Out: make([][]int, p), In: make([][]int, p), OutBytes: make([][]int, p)}
		for i := 0; i < p; i++ {
			for n, dst := range src.Out[i] {
				st.Out[perm[i]] = append(st.Out[perm[i]], perm[dst])
				size := 0
				if src.OutBytes != nil && src.OutBytes[i] != nil {
					size = src.OutBytes[i][n]
				}
				st.OutBytes[perm[i]] = append(st.OutBytes[perm[i]], size)
			}
		}
		// Rebuild the in-edges in the evaluator's row-major out-scan order.
		for i := 0; i < p; i++ {
			for _, dst := range st.Out[i] {
				st.In[dst] = append(st.In[dst], i)
			}
		}
		stages[k] = st
	}
	return &sched.StaticStages{Procs: p, Stages: stages}
}

// TestCollapsePermutationProperty is the property behind the collapse: on a
// pairwise-uniform machine the evaluation is equivariant under rank
// relabeling, so running a randomly permuted dissemination schedule must
// yield exactly the original times with the ranks permuted.
func TestCollapsePermutationProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, p := range []int{16, 64, 96} {
		m, err := platform.FlatClusterMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := barrier.Dissemination(p)
		if err != nil {
			t.Fatal(err)
		}
		base, err := sched.RunSchedule(context.Background(), m, s, 2, simnet.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 4; trial++ {
			perm := rng.Perm(p)
			permuted := permuteSchedule(t, s, perm)
			res, err := sched.RunSchedule(context.Background(), m, permuted, 2, simnet.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < p; i++ {
				if res.Times[perm[i]] != base.Times[i] {
					t.Fatalf("p=%d trial %d: times[perm[%d]] = %v, want %v", p, trial, i, res.Times[perm[i]], base.Times[i])
				}
			}
			if res.Messages != base.Messages || res.Bytes != base.Bytes {
				t.Fatalf("p=%d trial %d: traffic %d/%d, want %d/%d", p, trial, res.Messages, res.Bytes, base.Messages, base.Bytes)
			}
		}
	}
}

// TestCollapseFallbackHeterogeneous pins the silent fallback: per-pair
// heterogeneity or a live noise model makes the machine ineligible
// (CollapseClasses returns nil), and evaluation under CollapseAuto is the
// plain per-rank path — identical results to CollapseOff on the same seed.
func TestCollapseFallbackHeterogeneous(t *testing.T) {
	const p = 64
	hetero, err := platform.XeonClusterMachine(p) // HeteroSpread > 0
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := platform.Xeon8x2x4().Machine(p) // NoiseRel > 0
	if err != nil {
		t.Fatal(err)
	}
	for name, m := range map[string]*platform.Machine{"hetero": hetero, "noisy": noisy.WithRunSeed(11)} {
		s, err := barrier.Dissemination(p)
		if err != nil {
			t.Fatal(err)
		}
		if part := sched.CollapseClasses(m, s); part != nil {
			t.Fatalf("%s: CollapseClasses = %v, want nil", name, part)
		}
		runCollapseDiff(t, name+"/dissemination", m, s, true)
	}
}

// cancelSchedule is a long schedule that cancels its context while the
// evaluator is walking its stages, so cancellation must be noticed by the
// per-N-stages check inside one execution, not between executions.
type cancelSchedule struct {
	p, stages, cancelAt int
	cancel              context.CancelFunc
}

func (c *cancelSchedule) NumProcs() int  { return c.p }
func (c *cancelSchedule) NumStages() int { return c.stages }
func (c *cancelSchedule) StageAt(k int) sched.Stage {
	if k == c.cancelAt {
		c.cancel()
	}
	out := make([][]int, c.p)
	in := make([][]int, c.p)
	for i := 0; i < c.p; i++ {
		out[i] = []int{(i + 1) % c.p}
		in[i] = []int{(i - 1 + c.p) % c.p}
	}
	return sched.Stage{Out: out, In: in}
}

// TestRunScheduleMidExecutionCancel pins that a single long execution is
// abortable: the context is cancelled at stage 8 of a 40000-stage schedule,
// and the run must return the concurrent engine's error shape (wrapping
// ErrAborted and the cancellation cause) without walking the remaining
// stages of that same execution.
func TestRunScheduleMidExecutionCancel(t *testing.T) {
	const p = 16
	m, err := platform.FlatClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &cancelSchedule{p: p, stages: 40000, cancelAt: 8, cancel: cancel}
	o := simnet.DefaultOptions()
	o.SymmetryCollapse = simnet.CollapseOff // per-rank width, so the stage check fires well inside the execution
	_, err = sched.RunSchedule(ctx, m, s, 1, o)
	if !errors.Is(err, simnet.ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("want ErrAborted wrapping context.Canceled, got %v", err)
	}

	// The same schedule against a tiny wall-clock deadline: the in-execution
	// check must convert it to ErrDeadline.
	s2 := &cancelSchedule{p: p, stages: 40000, cancelAt: 40001, cancel: func() {}}
	o2 := simnet.DefaultOptions()
	o2.SymmetryCollapse = simnet.CollapseOff
	o2.Deadline = 1 // nanosecond
	if _, err := sched.RunSchedule(context.Background(), m, s2, 1, o2); !errors.Is(err, simnet.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}

// TestRunScheduleSteadyStateAllocs pins the arena reuse of the deterministic
// direct paths — every body of the run frame — as equalities: once the
// evaluator pool (or a sweep's kept arena) is warm, a run allocates its result
// and the partition it derives — O(1), never O(P) fresh rank states; the
// poller is the arena's — and a change that adds one allocation to a
// steady-state run fails here. (The concurrent engine's counts depend on
// sync.Pool refills after a GC and are pinned nowhere.)
func TestRunScheduleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a quarter of its Puts under -race, so evaluator reuse is not deterministic there")
	}
	ctx := context.Background()
	o := simnet.DefaultOptions()
	runSchedule := func(m simnet.Machine, s sched.Schedule, execs int) func() {
		return func() {
			if _, err := sched.RunSchedule(ctx, m, s, execs, o); err != nil {
				t.Fatal(err)
			}
		}
	}
	must := func(s sched.Schedule, err error) sched.Schedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	machine := func(m *platform.Machine, err error) *platform.Machine {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	xeon := func(p int) *platform.Machine { return machine(platform.XeonClusterMachine(p)) }
	flat := func(p int) *platform.Machine { return machine(platform.FlatClusterMachine(p)) }

	// Sweep points on a kept SweepEvaluator: the bytes axis alternates two
	// payloads on one machine, the scale axis two link scalings of one
	// profile under one schedule.
	const sweepP = 64
	payloads := []sched.Schedule{must(barrier.TotalExchange(sweepP, 64)), must(barrier.TotalExchange(sweepP, 4096))}
	prof := platform.XeonCluster(sweepP / 8)
	prof.NoiseRel = 0
	scaled := []simnet.Machine{machine(prof.Machine(sweepP)), machine(prof.Scaled(2, 2, 2, 2).Machine(sweepP))}
	// One traced point first, on an evaluator of its own that gives its arena
	// back to the pool: the untraced points measured below, on the evaluator
	// that takes it next, must cost what they cost on an arena that never
	// hosted a recorder.
	traced, err := sched.NewSweepEvaluator(xeon(sweepP), sched.SweepOptions{AckSends: o.AckSends, ComputeEmpty: true, Recorder: trace.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := traced.Run(ctx, nil, payloads[0], 1); err != nil {
		t.Fatal(err)
	}
	traced.Release()
	sw, err := sched.NewSweepEvaluator(xeon(sweepP), sched.SweepOptions{AckSends: o.AckSends, ComputeEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Release()
	point := 0
	sweepRun := func(machineOf func(int) simnet.Machine, scheduleOf func(int) sched.Schedule) func() {
		return func() {
			point++
			if _, err := sw.Run(ctx, machineOf(point), scheduleOf(point), 1); err != nil {
				t.Fatal(err)
			}
		}
	}

	// The superstep and program bodies at the sweep's P: four supersteps of one
	// ring post over the count exchange, and a compute, ring post and receive.
	steps, stepMachine := ringSupersteps(t, sweepP, 4, nil), xeon(sweepP)
	ring := simnet.NewProgram(sweepP)
	for r := 0; r < sweepP; r++ {
		b := ring.Rank(r)
		b.Compute(1e-6)
		rq := b.Irecv((r+sweepP-1)%sweepP, 0)
		b.Post((r+1)%sweepP, 0, 64)
		b.Wait(rq)
	}
	code, err := sched.Compile(ring)
	if err != nil {
		t.Fatal(err)
	}

	const big = 1 << 16
	cases := []struct {
		name string
		want float64
		run  func()
	}{
		{"per-rank total exchange P=16, two executions", 2, runSchedule(xeon(16), must(barrier.TotalExchange(16, 64)), 2)},
		{"per-rank total exchange P=64, two executions", 2, runSchedule(xeon(64), must(barrier.TotalExchange(64, 64)), 2)},
		{"sweep point, bytes axis P=64", 3, sweepRun(
			func(int) simnet.Machine { return nil }, func(i int) sched.Schedule { return payloads[i%2] })},
		{"sweep point, scale axis P=64", 3, sweepRun(
			func(i int) simnet.Machine { return scaled[i%2] }, func(int) sched.Schedule { return payloads[0] })},
		{"collapsed dissemination P=1024", 6, runSchedule(flat(1024), must(barrier.Dissemination(1024)), 1)},
		{"collapsed count exchange P=65536", 6, runSchedule(flat(big), must(bsp.ExchangeSchedule(big)), 1)},
		{"collapsed total exchange P=65536", 6, runSchedule(flat(big), must(barrier.TotalExchange(big, 64)), 1)},
		{"supersteps P=64, four ring posts", 13, func() {
			if _, err := sched.RunSupersteps(ctx, stepMachine, steps, o); err != nil {
				t.Fatal(err)
			}
		}},
		{"program P=64, compute + ring post + receive", 2, func() {
			if _, err := code.Run(ctx, stepMachine, o); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		c.run() // warm the pool, the arena and the partition memo
		c.run()
		if got := testing.AllocsPerRun(50, c.run); got != c.want {
			t.Errorf("%s: %.0f allocations per steady-state run, want exactly %.0f", c.name, got, c.want)
		}
	}
	if st := sw.Stats(); st.Rebases != 0 {
		t.Errorf("the sweep points rebased the evaluator %d times; they must share one arena", st.Rebases)
	}

	// The split walk, which AllocsPerRun (GOMAXPROCS 1) never takes: at
	// P=1,024 on two cores a point also starts its two workers, once per
	// execution whatever the stage count — 10 stages or 40.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	wide, err := sched.NewSweepEvaluator(xeon(1024), sched.SweepOptions{AckSends: o.AckSends, ComputeEmpty: true})
	if err != nil {
		t.Fatal(err)
	}
	defer wide.Release()
	offsets := make([]int, 40)
	for i := range offsets {
		offsets[i] = 3*i + 1
	}
	for _, s := range []sched.Schedule{must(barrier.Dissemination(1024)), must(sched.NewCirculant(1024, offsets, nil))} {
		run := func() {
			if _, err := wide.Run(ctx, nil, s, 1); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 5; i++ {
			run() // warm the arena and the runtime's free goroutines
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		const runs = 50
		for i := 0; i < runs; i++ {
			run()
		}
		runtime.ReadMemStats(&ms)
		if got := (ms.Mallocs - before) / runs; got != 5 {
			t.Errorf("split sweep point P=1024, %d stages: %d allocations per steady-state run, want exactly 5", s.NumStages(), got)
		}
	}
}

// TestCollapsedRunFootprint bounds what a collapsed RunSchedule allocates
// from a fresh arena — the pool emptied by two collections, the machine and
// schedule built beforehand: the walk holds one state per class, so what
// remains per rank is the derived partition's class index (4 B) and the
// result's time (8 B). A run that sizes rank states (56 B) fails here.
func TestCollapsedRunFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are counted too")
	}
	const p = 1 << 18
	m, err := platform.FlatClusterMachine(p)
	if err != nil {
		t.Fatal(err)
	}
	s, err := bsp.ExchangeSchedule(p)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := sched.RunSchedule(context.Background(), m, s, 1, simnet.DefaultOptions())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Collapse.Applied {
		t.Fatalf("collapse %+v, want applied", res.Collapse)
	}
	perRank := float64(after.TotalAlloc-before.TotalAlloc) / p
	t.Logf("a collapsed run at P=%d allocated %.1f B per rank", p, perRank)
	if perRank > 16 {
		t.Errorf("a collapsed run at P=%d allocated %.1f B per rank, want at most 16", p, perRank)
	}
}

// BenchmarkCollapsedRun times a collapsed RunSchedule of the count exchange at
// P=2^20 on the flat cluster, the run CollapseScalingSeries makes at its
// largest point: the walk is one class over its stages, so ns/op and B/op are
// what the run's O(P) parts — partition and result times — cost.
func BenchmarkCollapsedRun(b *testing.B) {
	const p = 1 << 20
	m, err := platform.FlatClusterMachine(p)
	if err != nil {
		b.Fatal(err)
	}
	s, err := bsp.ExchangeSchedule(p)
	if err != nil {
		b.Fatal(err)
	}
	ctx, o := context.Background(), simnet.DefaultOptions()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := sched.RunSchedule(ctx, m, s, 1, o); err != nil {
			b.Fatal(err)
		}
	}
}
