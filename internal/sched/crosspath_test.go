package sched_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/fault"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// rowsMachine is a machine given by explicit pairwise rows — the shape of an
// uploaded matrix profile — with deliberately asymmetric entries. It answers
// the engines' Pair call from the rows; the return latency is the transposed
// entry.
type rowsMachine struct {
	lat, gap, beta, ovh [][]float64
	nic                 []int
}

func (m *rowsMachine) Procs() int                         { return len(m.lat) }
func (m *rowsMachine) Latency(i, j int) float64           { return m.lat[i][j] }
func (m *rowsMachine) Gap(i, j int) float64               { return m.gap[i][j] }
func (m *rowsMachine) Beta(i, j int) float64              { return m.beta[i][j] }
func (m *rowsMachine) Overhead(i, j int) float64          { return m.ovh[i][j] }
func (m *rowsMachine) SelfOverhead(int) float64           { return 1e-7 }
func (m *rowsMachine) NIC(i int) int                      { return m.nic[i] }
func (m *rowsMachine) Noise(rank int, seq uint64) float64 { return 1 }
func (m *rowsMachine) Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	return m.lat[i][j], m.gap[i][j], m.beta[i][j], m.ovh[i][j], m.lat[j][i], m.nic[i] == m.nic[j]
}

func randomRowsMachine(rng *rand.Rand, p int) *rowsMachine {
	rows := func(lo, hi float64) [][]float64 {
		out := make([][]float64, p)
		for i := range out {
			out[i] = make([]float64, p)
			for j := range out[i] {
				if i != j {
					out[i][j] = lo + (hi-lo)*rng.Float64()
				}
			}
		}
		return out
	}
	m := &rowsMachine{lat: rows(5e-6, 60e-6), gap: rows(0, 8e-6), beta: rows(1e-9, 2e-8), ovh: rows(1e-7, 2e-6), nic: make([]int, p)}
	for i := range m.nic {
		m.nic[i] = i / (1 + rng.Intn(3)) // some ranks share a NIC
		m.ovh[i][i] = 1e-7
	}
	return m
}

// accessorsOnly hides every optional capability of the wrapped machine —
// Pair, PairTerm, PairClass — leaving exactly the simnet.Machine accessors,
// so the engines reach it through simnet.PricerOf's adapter.
type accessorsOnly struct{ simnet.Machine }

// randomSchedule draws one of the three schedule shapes: a circulant with
// random offsets and sizes (empty stages included), a binomial tree, or an
// irregular stage graph (random fan-out, self-sends, empty ranks) whose
// In rows follow the row-major scan order the Stage contract requires.
func randomSchedule(t *testing.T, rng *rand.Rand, p int) (string, sched.Schedule) {
	t.Helper()
	stages := 1 + rng.Intn(5)
	switch rng.Intn(3) {
	case 0:
		offs, sizes := make([]int, stages), make([]int, stages)
		for k := range offs {
			offs[k], sizes[k] = rng.Intn(2*p)-p/2, rng.Intn(4096)
		}
		s, err := sched.NewCirculant(p, offs, sizes)
		if err != nil {
			t.Fatal(err)
		}
		return "circulant", s
	case 1:
		mk := barrier.StreamBroadcast
		if rng.Intn(2) == 0 {
			mk = barrier.StreamReduce
		}
		s, err := mk(p, rng.Intn(p), rng.Intn(4096))
		if err != nil {
			t.Fatal(err)
		}
		return "tree", s
	}
	st := make([]sched.Stage, stages)
	for k := range st {
		st[k] = sched.Stage{Out: make([][]int, p), In: make([][]int, p), OutBytes: make([][]int, p)}
		for i := 0; i < p; i++ {
			for _, j := range rng.Perm(p)[:rng.Intn(min(p, 4))] {
				st[k].Out[i] = append(st[k].Out[i], j)
				st[k].OutBytes[i] = append(st[k].OutBytes[i], rng.Intn(4096))
				st[k].In[j] = append(st[k].In[j], i)
			}
		}
	}
	return "irregular", &sched.StaticStages{Procs: p, Stages: st}
}

// edgeListPattern is the schedule's stages read once into a barrier.Pattern's
// edge lists, with its symmetry hint: the form every materialized generator
// has, one more input to every path.
func edgeListPattern(s sched.Schedule) *barrier.Pattern {
	pat := &barrier.Pattern{Name: "literal", StaticStages: sched.StaticStages{Procs: s.NumProcs()}}
	if ss, ok := s.(sched.SymmetricSchedule); ok {
		pat.Sym = ss.Symmetry()
	}
	for k := 0; k < s.NumStages(); k++ {
		pat.Stages = append(pat.Stages, s.StageAt(k))
	}
	return pat
}

// programOf lowers execs executions of a schedule to the op-stream the
// concurrent stage walkers perform (barrier.Execute's convention, which
// RunSchedule follows): per stage every rank marks the stage, posts its
// receives, injects its sends, then waits receives first and sends second, in
// edge order; a rank with no edges pays an empty Compute(0).
func programOf(s sched.Schedule, execs int) *simnet.Program {
	p := s.NumProcs()
	pr := simnet.NewProgram(p)
	for x := 0; x < execs; x++ {
		for sg := 0; sg < s.NumStages(); sg++ {
			st := s.StageAt(sg)
			tag := sched.ScheduleTagBase + sg
			for r := 0; r < p; r++ {
				b := pr.Rank(r)
				b.Stage(sg)
				if len(st.In[r]) == 0 && len(st.Out[r]) == 0 {
					b.Compute(0)
					continue
				}
				var reqs []simnet.Req
				for _, src := range st.In[r] {
					reqs = append(reqs, b.Irecv(src, tag))
				}
				for k, dst := range st.Out[r] {
					size := 0
					if st.OutBytes != nil {
						size = st.OutBytes[r][k]
					}
					reqs = append(reqs, b.Isend(dst, tag, size))
				}
				for _, rq := range reqs {
					b.Wait(rq)
				}
			}
		}
	}
	return pr
}

// spillOf makes one traced run and returns its result with the recording as
// spill bytes — run metadata, summary and every lane, event for event.
func spillOf(t *testing.T, tag string, run func(rec *trace.Recorder) (*simnet.Result, error)) (*simnet.Result, []byte) {
	t.Helper()
	rec := trace.NewRecorder()
	res, err := run(rec)
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	tr, err := rec.Trace()
	if err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	var buf bytes.Buffer
	if err := trace.WriteSpill(&buf, tr); err != nil {
		t.Fatalf("%s: %v", tag, err)
	}
	return res, buf.Bytes()
}

// crossPaths evaluates execs executions of the schedule on every path — the
// concurrent engine, RunSchedule with collapse on and off, and SweepEvaluators
// (collapse on and off) that evaluate the point twice, one on a fresh arena
// and one that first ran an unrelated point on a machine of a different rank
// count and was rebased — and requires identical Times, MakeSpan, Messages
// and Bytes. A traced leg then runs the concurrent engine and RunSchedule
// with a recorder each and requires the same result and byte-identical
// recordings.
func crossPaths(t *testing.T, tag string, m simnet.Machine, s sched.Schedule, execs int, ack bool, plan *fault.Plan) *simnet.Result {
	t.Helper()
	ctx := context.Background()
	o := simnet.DefaultOptions()
	o.AckSends = ack
	o.Faults = plan
	oC := o
	oC.Engine = simnet.EngineConcurrent
	want, err := simnet.RunProgram(ctx, m, programOf(s, execs), oC)
	if err != nil {
		t.Fatalf("%s concurrent: %v", tag, err)
	}
	check := func(path string, got *simnet.Result, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s %s: %v", tag, path, err)
		}
		diffResults(t, tag+" "+path, want, got)
	}
	res, err := sched.RunSchedule(ctx, m, s, execs, o)
	check("RunSchedule", res, err)
	oOff := o
	oOff.SymmetryCollapse = simnet.CollapseOff
	res, err = sched.RunSchedule(ctx, m, s, execs, oOff)
	check("RunSchedule/collapse-off", res, err)

	other := machines(t, m.Procs()+3, 11, false)
	unrelated, err := barrier.StreamDissemination(other.Procs())
	if err != nil {
		t.Fatal(err)
	}
	for _, so := range []simnet.Options{o, oOff} {
		for _, start := range []string{"fresh", "rebased"} {
			path := fmt.Sprintf("sweep/collapse%d/%s", so.SymmetryCollapse, start)
			base := m
			if start == "rebased" {
				base = other
			}
			sw, err := sched.NewSweepEvaluator(base, sweepOptionsFor(so))
			if err != nil {
				t.Fatalf("%s %s: %v", tag, path, err)
			}
			if start == "rebased" {
				if _, err := sw.Run(ctx, nil, unrelated, 1); err != nil {
					t.Fatalf("%s %s: unrelated point: %v", tag, path, err)
				}
			}
			for point := 0; point < 2; point++ {
				res, err = sw.Run(ctx, m, s, execs)
				check(fmt.Sprintf("%s/point%d", path, point), res, err)
			}
			if st := sw.Stats(); start == "rebased" && st.Rebases != 1 {
				t.Errorf("%s %s: %d rebases, want 1: %+v", tag, path, st.Rebases, st)
			}
			sw.Release()
		}
	}

	pr := programOf(s, execs)
	res, spillC := spillOf(t, tag+" traced concurrent", func(rec *trace.Recorder) (*simnet.Result, error) {
		oT := oC
		oT.Recorder = rec
		return simnet.RunProgram(ctx, m, pr, oT)
	})
	diffResults(t, tag+" traced concurrent", want, res)
	res, spillD := spillOf(t, tag+" traced RunSchedule", func(rec *trace.Recorder) (*simnet.Result, error) {
		oT := o
		oT.Recorder = rec
		return sched.RunSchedule(ctx, m, s, execs, oT)
	})
	diffResults(t, tag+" traced RunSchedule", want, res)
	if !bytes.Equal(spillC, spillD) {
		t.Errorf("%s: the concurrent engine and RunSchedule recorded different traces (%d and %d spill bytes)", tag, len(spillC), len(spillD))
	}
	return want
}

// TestGeneratedCrossPathAgreement is the generated equivalence test of the
// evaluation paths: random schedules × profile, matrix and accessor-only
// machines × acks on and off × a fault plan with link rules, a straggler and
// a fail-stop with restart, all priced through the one Pair call, billed by
// the one kernel and — traced — recorded event for event alike.
func TestGeneratedCrossPathAgreement(t *testing.T) {
	rng := rand.New(rand.NewSource(20260928))
	cases := 36
	if testing.Short() {
		cases = 9
	}
	for c := 0; c < cases; c++ {
		p := 2 + rng.Intn(22)
		var m simnet.Machine
		var mname string
		switch c % 4 {
		case 0:
			mname, m = "xeon-hetero", machines(t, p, int64(c), false)
		case 1:
			mname, m = "xeon-noisy", machines(t, p, int64(c), true)
		case 2:
			mname, m = "matrix", randomRowsMachine(rng, p)
		default:
			mname, m = "accessors-only", accessorsOnly{machines(t, p, int64(c), false)}
		}
		shape, s := randomSchedule(t, rng, p)
		ack := rng.Intn(2) == 0
		tag := fmt.Sprintf("case %d %s %s p=%d ack=%v", c, mname, shape, p, ack)
		base := crossPaths(t, tag, m, s, 2, ack, nil)
		if shape == "circulant" {
			// The same stages as edge lists: one more input to every path.
			diffResults(t, tag+" edge lists vs streamed", base, crossPaths(t, tag+" edge lists", m, edgeListPattern(s), 2, ack, nil))
		}

		plan := &fault.Plan{
			Seed:      int64(c),
			Slowdowns: []fault.Slowdown{{Rank: rng.Intn(p), Factor: 1.5 + rng.Float64()}},
			Links: []fault.LinkRule{
				{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 3, End: base.MakeSpan * 0.5},
				{Src: rng.Intn(p), Dst: -1, Class: -1, LatencyFactor: 1.5, BetaFactor: 1},
				{Src: -1, Dst: rng.Intn(p), Class: -1, LatencyFactor: 1, BetaFactor: 4, Start: base.MakeSpan * 0.25},
			},
			// Derived from c, not drawn: the generated cases keep their inputs.
			FailStops: []fault.FailStop{{Rank: c % p, FailAt: base.MakeSpan*0.4 + 1e-9,
				Restart: base.MakeSpan * 0.1 * float64(1+c%3), Checkpoint: base.MakeSpan * 0.15 * float64(c%2)}},
		}
		crossPaths(t, tag+" faults", m, s, 2, ack, plan)
	}
}

// TestAccessorOnlyMachineMatches pins the adapter behind simnet.PricerOf: a
// machine that implements nothing but the simnet.Machine accessors runs on
// every path and produces the bits of the machine it wraps.
func TestAccessorOnlyMachineMatches(t *testing.T) {
	const p = 13
	m := machines(t, p, 7, true)
	s, err := barrier.StreamAllGatherRing(p, 512)
	if err != nil {
		t.Fatal(err)
	}
	for _, ack := range []bool{true, false} {
		want := crossPaths(t, fmt.Sprintf("full ack=%v", ack), m, s, 1, ack, nil)
		got := crossPaths(t, fmt.Sprintf("accessors-only ack=%v", ack), accessorsOnly{m}, s, 1, ack, nil)
		diffResults(t, fmt.Sprintf("accessors-only vs full ack=%v", ack), want, got)
	}
}

// TestAckBillsReturnLatency pins the one rule for the ack's return leg: an
// acknowledged send completes at arrival + Latency(dst, src), on every path,
// also where Latency(dst, src) != Latency(src, dst).
func TestAckBillsReturnLatency(t *testing.T) {
	m := &rowsMachine{
		lat:  [][]float64{{0, 10e-6}, {30e-6, 0}},
		gap:  [][]float64{{0, 0}, {0, 0}},
		beta: [][]float64{{0, 0}, {0, 0}},
		ovh:  [][]float64{{0, 1e-6}, {1e-6, 0}},
		nic:  []int{0, 1},
	}
	// One stage, one edge 0→1: rank 0 pays overhead, the message arrives one
	// forward latency later, the ack one return latency after that.
	s := &sched.StaticStages{Procs: 2, Stages: []sched.Stage{{Out: [][]int{{1}, nil}, In: [][]int{nil, {0}}}}}
	res := crossPaths(t, "asymmetric ack", m, s, 1, true, nil)
	arrival := m.ovh[0][1] + m.lat[0][1]
	if want := arrival + m.lat[1][0]; res.Times[0] != want {
		t.Errorf("sender completes at %v, want overhead + Latency(0,1) + Latency(1,0) = %v", res.Times[0], want)
	}
	if res.Times[1] != arrival {
		t.Errorf("receiver completes at %v, want the arrival %v", res.Times[1], arrival)
	}
}

// TestHugeMessagesSaturateRecordedSize pins the 2 GiB boundary of recorded
// sizes on both engines: a traced 4-rank circulant with 3 GiB edges counts the
// exact bytes in the result and records the per-message size saturated at
// MaxInt32 — equal per-stage rollups on every path, never a wrapped negative.
func TestHugeMessagesSaturateRecordedSize(t *testing.T) {
	const p, size = 4, 3 << 30
	m := machines(t, p, 3, false)
	s, err := sched.NewCirculant(p, []int{1, 2}, []int{size, size})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	pr := programOf(s, 1)
	paths := []struct {
		name string
		run  func(o simnet.Options) (*simnet.Result, error)
	}{
		{"simnet.RunProgram", func(o simnet.Options) (*simnet.Result, error) {
			o.Engine = simnet.EngineConcurrent
			return simnet.RunProgram(ctx, m, pr, o)
		}},
		{"sched.RunSchedule", func(o simnet.Options) (*simnet.Result, error) { return sched.RunSchedule(ctx, m, s, 1, o) }},
		{"sched.RunProgram", func(o simnet.Options) (*simnet.Result, error) { return sched.RunProgram(ctx, m, pr, o) }},
	}
	var first []trace.StageRollup
	for _, path := range paths {
		o := simnet.DefaultOptions()
		o.Recorder = trace.NewRecorder()
		res, err := path.run(o)
		if err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		if res.Messages != 2*p || res.Bytes != 2*p*size {
			t.Errorf("%s: %d messages, %d bytes, want %d and %d", path.name, res.Messages, res.Bytes, 2*p, 2*p*size)
		}
		tr, err := o.Recorder.Trace()
		if err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		roll, err := trace.RollupOf(tr, trace.RollupOptions{})
		if err != nil {
			t.Fatalf("%s: %v", path.name, err)
		}
		if len(roll.Stages) != 2 {
			t.Fatalf("%s: %d stages in the rollup, want 2", path.name, len(roll.Stages))
		}
		for _, st := range roll.Stages {
			if st.Messages != p || st.Bytes != p*math.MaxInt32 {
				t.Errorf("%s stage %d: %d messages, %d bytes, want %d messages of MaxInt32 recorded bytes", path.name, st.Stage, st.Messages, st.Bytes, p)
			}
		}
		if first == nil {
			first = roll.Stages
		} else if !slices.Equal(first, roll.Stages) {
			t.Errorf("%s: per-stage rollup %v differs from %s's %v", path.name, roll.Stages, paths[0].name, first)
		}
	}
}
