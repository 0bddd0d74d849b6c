package bsp

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"time"

	"hbsp/internal/adapt"
	"hbsp/internal/barrier"
	"hbsp/internal/matrix"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// groundTruthParams builds cost-model parameters directly from the profile's
// pairwise matrices (internal/bench runs the benchmark variant; it cannot be
// imported here because it builds on this package).
func groundTruthParams(m *platform.Machine) barrier.Params {
	p := m.Procs()
	ovh := matrix.NewDense(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				ovh.Set(i, i, m.SelfOverhead(i))
			} else {
				ovh.Set(i, j, m.Overhead(i, j))
			}
		}
	}
	return barrier.Params{
		Latency:  m.Profile().LatencyMatrix(m.Placement()),
		Overhead: ovh,
		Beta:     m.Profile().BetaMatrix(m.Placement()),
	}
}

// exchangeProgram is a three-superstep workload touching every Sync-delivered
// mechanism: registration, puts, gets and BSMP messages.
func exchangeProgram(t *testing.T) Program {
	return func(ctx *Ctx) error {
		p := ctx.NProcs()
		area := make([]float64, p)
		ctx.PushReg("a", area)
		if err := ctx.Sync(); err != nil {
			return err
		}
		right := (ctx.Pid() + 1) % p
		if err := ctx.Put(right, "a", ctx.Pid(), []float64{float64(ctx.Pid() + 1)}); err != nil {
			return err
		}
		if err := ctx.Send(right, ctx.Pid(), []float64{7}); err != nil {
			return err
		}
		if err := ctx.Sync(); err != nil {
			return err
		}
		left := (ctx.Pid() - 1 + p) % p
		if area[left] != float64(left+1) {
			t.Errorf("process %d: put value %v, want %d", ctx.Pid(), area[left], left+1)
		}
		if ctx.QueueLen() != 1 {
			t.Errorf("process %d: QueueLen = %d, want 1", ctx.Pid(), ctx.QueueLen())
		}
		// Process left's slot (left-1+p)%p was written by its own left
		// neighbour in the previous superstep, with that neighbour's pid+1.
		slot := (left - 1 + p) % p
		got := make([]float64, 1)
		if err := ctx.Get(left, "a", slot, 1, got); err != nil {
			return err
		}
		if err := ctx.Sync(); err != nil {
			return err
		}
		if p > 1 && got[0] != float64(slot+1) {
			t.Errorf("process %d: get value %v, want %v", ctx.Pid(), got[0], float64(slot+1))
		}
		return nil
	}
}

// The schedule executor running the dissemination pattern must reproduce the
// hand-rolled default exchange bit for bit: same per-rank virtual times, same
// message and byte counts, on a noisy machine.
func TestScheduleSynchronizerMatchesDefaultBitForBit(t *testing.T) {
	for _, ranks := range []int{2, 5, 8, 16} {
		prof := platform.Xeon8x2x4() // default run-to-run noise kept on
		m, err := prof.Machine(ranks)
		if err != nil {
			t.Fatal(err)
		}
		diss, err := barrier.Dissemination(ranks)
		if err != nil {
			t.Fatal(err)
		}
		sync, err := NewScheduleSynchronizer(diss)
		if err != nil {
			t.Fatal(err)
		}
		base, err := Run(m.WithRunSeed(11), exchangeProgram(t))
		if err != nil {
			t.Fatal(err)
		}
		viaSchedule, err := RunWith(m.WithRunSeed(11), sync, exchangeProgram(t))
		if err != nil {
			t.Fatal(err)
		}
		if base.Messages != viaSchedule.Messages || base.Bytes != viaSchedule.Bytes {
			t.Fatalf("ranks=%d: traffic differs: %d msgs/%d B vs %d msgs/%d B",
				ranks, base.Messages, base.Bytes, viaSchedule.Messages, viaSchedule.Bytes)
		}
		for r := range base.Times {
			if base.Times[r] != viaSchedule.Times[r] {
				t.Fatalf("ranks=%d: rank %d finishes at %v via default, %v via schedule",
					ranks, r, base.Times[r], viaSchedule.Times[r])
			}
		}
	}
}

// An adapt-constructed hierarchical hybrid barrier must run the count
// exchange end to end on a platform preset: 32 ranks round-robin across the
// 8 Xeon nodes cluster into 8 subsets, and the hybrid gather/release schedule
// delivers every count row.
func TestHybridScheduleSynchronizerEndToEnd(t *testing.T) {
	const ranks = 32
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	m, err := prof.Machine(ranks)
	if err != nil {
		t.Fatal(err)
	}
	cl, err := adapt.ClusterAuto(prof.LatencyMatrix(m.Placement()))
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Groups) != 8 {
		t.Fatalf("expected 8 clusters, got %d", len(cl.Groups))
	}
	hybrid, err := adapt.BuildHybrid(cl, adapt.SubTree, adapt.SubDissemination)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := NewScheduleSynchronizer(hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunWith(m, sync, exchangeProgram(t)); err != nil {
		t.Fatal(err)
	}
}

// The full model-driven path: parameter matrices → greedy payload-aware
// selection → schedule synchronizer → simulated BSP program.
func TestAdaptedSynchronizerEndToEnd(t *testing.T) {
	const ranks = 24
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	m, err := prof.Machine(ranks)
	if err != nil {
		t.Fatal(err)
	}
	sync, res, err := NewAdaptedSynchronizer(groundTruthParams(m), barrier.DefaultCostOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(res.Best.Name, "+counts") {
		t.Fatalf("selected candidate %q was not costed with the count payload", res.Best.Name)
	}
	if res.Best.Predicted <= 0 || math.IsNaN(res.Best.Predicted) {
		t.Fatalf("implausible predicted cost %v", res.Best.Predicted)
	}
	resRun, err := RunWith(m, sync, exchangeProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if resRun.MakeSpan <= 0 {
		t.Fatalf("no simulated time elapsed")
	}
}

func TestScheduleSynchronizerRejectsUnsuitableSchedules(t *testing.T) {
	if _, err := NewScheduleSynchronizer(nil); err == nil {
		t.Error("nil schedule should be rejected")
	}
	if _, err := NewScheduleSynchronizer((*barrier.Pattern)(nil)); err == nil {
		t.Error("a nil pattern handed over as a schedule should be rejected")
	}
	bc, err := barrier.Broadcast(8, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduleSynchronizer(bc); err == nil {
		t.Error("broadcast schedule should be rejected: it cannot complete a total exchange")
	}
	rd, err := barrier.Reduce(8, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduleSynchronizer(rd); err == nil {
		t.Error("reduce schedule should be rejected")
	}
	// An incomplete flooding schedule fails verification: the linear
	// barrier's arrival stage alone.
	linear, err := barrier.Linear(8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewScheduleSynchronizer(&sched.StaticStages{Procs: 8, Stages: linear.Stages[:1]}); err == nil {
		t.Error("truncated schedule should fail verification")
	}
}

func TestScheduleSynchronizerProcsMismatch(t *testing.T) {
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0
	m, err := prof.Machine(4)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{8, 2} {
		diss, err := barrier.Dissemination(procs)
		if err != nil {
			t.Fatal(err)
		}
		sync, err := NewScheduleSynchronizer(diss)
		if err != nil {
			t.Fatal(err)
		}
		for _, engine := range []simnet.Engine{simnet.EngineAuto, simnet.EngineConcurrent} {
			o := simnet.DefaultOptions()
			o.Engine = engine
			o.Deadline = 2 * time.Second // a walk of the 8-rank schedule would wait this long for ranks 4..7
			if _, err := RunWith(m, sync, func(ctx *Ctx) error { return ctx.Sync() }, o); err == nil ||
				!strings.Contains(err.Error(), fmt.Sprintf("schedule for %d processes", procs)) {
				t.Fatalf("%d-rank schedule, engine %d: expected a process-count mismatch error, got %v", procs, engine, err)
			}
		}
	}
}

func TestRunWithNilSynchronizerUsesDefault(t *testing.T) {
	m := testMachine(t, 4)
	base, err := Run(m.WithRunSeed(3), exchangeProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	viaNil, err := RunWith(m.WithRunSeed(3), nil, exchangeProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	if base.MakeSpan != viaNil.MakeSpan {
		t.Fatalf("nil synchronizer (%g) differs from default (%g)", viaNil.MakeSpan, base.MakeSpan)
	}
}

// TestSharedExchangeScheduleChurnLeavesRunsUnchanged: runs on both engines
// produce the quiet run's times while another goroutine builds the default
// exchange schedule for a thousand distinct P. Nothing process-wide stands
// between them: a run keeps its exchange in its own memo.
func TestSharedExchangeScheduleChurnLeavesRunsUnchanged(t *testing.T) {
	m := testMachine(t, 16).WithRunSeed(5)
	want, err := Run(m, exchangeProgram(t))
	if err != nil {
		t.Fatal(err)
	}
	churned := make(chan error, 1)
	go func() {
		for p := 1; p <= 1000; p++ {
			if _, err := ExchangeSchedule(p); err != nil {
				churned <- err
				return
			}
		}
		churned <- nil
	}()
	for done := false; !done; {
		select {
		case err := <-churned:
			if err != nil {
				t.Fatal(err)
			}
			done = true
		default:
		}
		for _, engine := range []simnet.Engine{simnet.EngineAuto, simnet.EngineConcurrent} {
			o := simnet.DefaultOptions()
			o.Engine = engine
			got, err := Run(m, exchangeProgram(t), o)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(got.Times, want.Times) {
				t.Fatalf("engine %d under schedule churn: times %v, quiet run %v", engine, got.Times, want.Times)
			}
		}
	}
}

// sizedEdges lists a schedule's signals as (stage, from, to, bytes), read the
// way the walkers read them.
func sizedEdges(s sched.Schedule) [][4]int {
	var edges [][4]int
	v := sched.ViewOf(s)
	for k := 0; k < s.NumStages(); k++ {
		v.Load(k)
		for i := 0; i < s.NumProcs(); i++ {
			for e, j := range v.Outs(i) {
				edges = append(edges, [4]int{k, i, j, v.OutSize(i, e)})
			}
		}
	}
	return edges
}

// TestKnowledgeSizedMatchesClosedForms holds the one sizing text to the two
// closed forms written without it — the default synchronizer's doubling count
// exchange and the dissemination allgather — and to what the schedule
// synchronizer's own sizing loop produced for a hybrid before this text
// replaced it.
func TestKnowledgeSizedMatchesClosedForms(t *testing.T) {
	for p := 1; p <= 130; p++ {
		diss, err := barrier.StreamDissemination(p)
		if err != nil {
			t.Fatal(err)
		}
		exchange, err := ExchangeSchedule(p)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sizedEdges(barrier.KnowledgeSized(diss, headerBytes, p*countEntryBytes)), sizedEdges(exchange); !slices.Equal(got, want) {
			t.Fatalf("p=%d: sized dissemination %v, count exchange %v", p, got, want)
		}
		gather, err := barrier.StreamAllGather(p, 96)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := sizedEdges(barrier.KnowledgeSized(diss, 0, 96)), sizedEdges(gather); !slices.Equal(got, want) {
			t.Fatalf("p=%d: sized dissemination %v, allgather %v", p, got, want)
		}
	}

	hybrid, err := adapt.BuildHybrid(&adapt.Clustering{Groups: [][]int{{0, 1, 2}, {3, 4}, {5, 6, 7}}}, adapt.SubTree, adapt.SubDissemination)
	if err != nil {
		t.Fatal(err)
	}
	sync, err := NewScheduleSynchronizer(hybrid)
	if err != nil {
		t.Fatal(err)
	}
	sized, err := sync.exchangeSchedule(8)
	if err != nil {
		t.Fatal(err)
	}
	// Bytes on every out-edge of each rank, stage by stage (0: the rank is
	// silent): the header's 24 plus 32 per count row held.
	want := [][]int{
		{0, 56, 0, 0, 0, 0, 56, 0},
		{0, 0, 56, 0, 56, 0, 0, 56},
		{120, 0, 0, 88, 0, 120, 0, 0},
		{216, 0, 0, 184, 0, 184, 0, 0},
		{280, 0, 0, 280, 0, 280, 0, 0},
		{280, 0, 0, 0, 0, 280, 0, 0},
	}
	got := make([][]int, sized.NumStages())
	for k := range got {
		got[k] = make([]int, 8)
	}
	for _, e := range sizedEdges(sized) {
		got[e[0]][e[1]] = e[3]
	}
	if !slices.EqualFunc(got, want, slices.Equal[[]int]) {
		t.Fatalf("hybrid count exchange sized\n%v, want\n%v", got, want)
	}
}
