package experiments

import (
	"fmt"

	"hbsp/internal/barrier"
	"hbsp/internal/bsp"
	"hbsp/internal/platform"
	"hbsp/internal/simnet"
)

// CollectiveBlockBytes is the per-process block size the collective
// comparison transports (128 doubles per contributing process).
const CollectiveBlockBytes = 1024

// CollectivePoint is one point of the collective-schedule comparison: the
// simulated and model-predicted makespan of one collective at one process
// count on one platform preset.
type CollectivePoint struct {
	Platform   string
	Collective string
	Procs      int
	Stages     int
	Measured   float64
	Predicted  float64
	// RelError is (Predicted − Measured) / Measured.
	RelError float64
}

// CollectiveSeries measures and predicts every collective schedule generator
// (broadcast, reduce, allreduce, allgather, total exchange) over a sweep of
// process counts on the given platform preset. It is the collective
// generalization of the Chapter 5 barrier figures: the same cost model that
// prices barrier stages prices the payload-carrying stages of the
// collectives, and the same simulator provides the measurement. Each point
// takes the collective's one generator — a Pattern wrapping its streamed
// schedule — verifies it, and reads its name and semantics (the cost options)
// off the pattern.
func CollectiveSeries(prof *platform.Profile, maxProcs int, opts Options) ([]CollectivePoint, error) {
	opts = opts.normalize()
	draws := newDraws(prof.Seed, maxProcs)
	return ParallelSeries(procSweep(opts.ProcStep, maxProcs), func(p int) ([]CollectivePoint, error) {
		m, err := prof.Machine(p)
		if err != nil {
			return nil, err
		}
		m = m.WithDraws(draws)
		params, err := barrierParams(m, opts.Reps)
		if err != nil {
			return nil, err
		}
		// The five generators' patterns, each wrapping its streamed schedule.
		const b = CollectiveBlockBytes
		// The five run on one re-seeded copy, the first four reading and
		// extending its memo. The total exchange runs last, and its stream is
		// longer than the other four together: stored, it would cost more
		// than its prefix saves, so it runs on the copy without the memo.
		rm := reseeded(m, int64(400+p))
		var out []CollectivePoint
		for _, gen := range []func() (*barrier.Pattern, error){
			func() (*barrier.Pattern, error) { return barrier.Broadcast(p, 0, b) },
			func() (*barrier.Pattern, error) { return barrier.Reduce(p, 0, b) },
			func() (*barrier.Pattern, error) { return barrier.AllReduce(p, b) },
			func() (*barrier.Pattern, error) { return barrier.AllGather(p, b) },
			func() (*barrier.Pattern, error) { return barrier.TotalExchange(p, b) },
		} {
			pat, err := gen()
			if err != nil {
				return nil, err
			}
			if err := pat.Verify(); err != nil {
				return nil, err
			}
			run := rm
			if pat.Semantics == barrier.SemTotalExchange {
				run = rm.WithTurnDraws(nil)
			}
			meas, err := barrier.Measure(run, pat, opts.Reps)
			if err != nil {
				return nil, err
			}
			pred, err := barrier.Predict(pat, params, barrier.CostOptionsFor(pat.Semantics))
			if err != nil {
				return nil, err
			}
			pt := CollectivePoint{
				Platform:   prof.Name,
				Collective: pat.Name,
				Procs:      p,
				Stages:     pat.NumStages(),
				Measured:   meas.MeanWorst,
				Predicted:  pred.Total,
			}
			if pt.Measured > 0 {
				pt.RelError = (pt.Predicted - pt.Measured) / pt.Measured
			}
			out = append(out, pt)
		}
		return out, nil
	})
}

// CollectiveTable renders collective points in the measured/predicted layout
// of the barrier chapters.
func CollectiveTable(title string, points []CollectivePoint) *Table {
	t := &Table{Title: title, Columns: []string{"P", "collective", "stages", "measured [s]", "predicted [s]", "rel err"}}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Procs), p.Collective, fmt.Sprintf("%d", p.Stages),
			fmtSeconds(p.Measured), fmtSeconds(p.Predicted), fmtPercent(p.RelError))
	}
	return t
}

// AdaptedSyncPoint is one row of the synchronizer comparison: the simulated
// makespan of a fixed BSP exchange program under the default dissemination
// count exchange and under the model-selected hybrid schedule, together with
// the model's prediction for the selected schedule.
type AdaptedSyncPoint struct {
	Procs         int
	Best          string
	Predicted     float64
	Dissemination float64
	Adapted       float64
}

// SyncExchangeProgram is the fixed workload of the synchronizer comparison
// and of the repository's synchronization benchmarks (BenchmarkSyncDissemination,
// the benchmark's bsp.sync_gate_ms and bsp.sync_concurrent_ms): one
// registration superstep followed by a superstep of ring puts, so the count
// exchange must deliver non-trivial counts for the drain to be correct. Keeping
// a single definition guarantees every harness measures the same workload.
// Each process receives exactly one put, so it registers one slot: the
// registrations are O(P) in all, and a put's cost does not depend on its
// offset.
func SyncExchangeProgram(ctx *bsp.Ctx) error {
	p := ctx.NProcs()
	area := make([]float64, 1)
	ctx.PushReg("x", area)
	if err := ctx.Sync(); err != nil {
		return err
	}
	right := (ctx.Pid() + 1) % p
	if err := ctx.Put(right, "x", 0, []float64{float64(ctx.Pid() + 1)}); err != nil {
		return err
	}
	if err := ctx.Sync(); err != nil {
		return err
	}
	left := (ctx.Pid() - 1 + p) % p
	if area[0] != float64(left+1) {
		return fmt.Errorf("experiments: process %d drained a wrong put value %v", ctx.Pid(), area[0])
	}
	return nil
}

// SendRecvRingProgram is the fixed point-to-point workload of the send_recv
// benchmarks (the benchmark's simnet.send_recv_ms, BenchmarkTraceOverhead's
// untraced and traced legs): eight rounds of an eager-post/blocking-receive
// ring, the minimal program exercising injection ports, mailbox delivery and
// matching. Keeping a single definition guarantees the traced and untraced
// entries measure the same workload — the overhead comparison is only valid
// while they do.
func SendRecvRingProgram(p *simnet.Proc) error {
	const rounds = 8
	n := p.Size()
	next, prev := (p.Rank()+1)%n, (p.Rank()+n-1)%n
	for k := 0; k < rounds; k++ {
		rq := p.Irecv(prev, k)
		p.Post(next, k, 8, nil)
		p.Wait(rq)
	}
	return nil
}

// AdaptedSyncSeries runs the end-to-end connection of Case Study I to the
// runtime: for every process count, the pairwise benchmark feeds the greedy
// sync-schedule selection (adapt.GreedySync via bsp.NewAdaptedSynchronizer),
// and the same BSP program is simulated with the default dissemination
// synchronizer and with the selected schedule executing the count exchange.
func AdaptedSyncSeries(prof *platform.Profile, maxProcs int, opts Options) ([]AdaptedSyncPoint, error) {
	opts = opts.normalize()
	draws := newDraws(prof.Seed, maxProcs)
	return ParallelSeries(procSweep(opts.ProcStep, maxProcs), func(p int) ([]AdaptedSyncPoint, error) {
		if p < 4 {
			return nil, nil
		}
		m, err := prof.Machine(p)
		if err != nil {
			return nil, err
		}
		m = m.WithDraws(draws)
		params, err := barrierParams(m, opts.Reps)
		if err != nil {
			return nil, err
		}
		sync, res, err := bsp.NewAdaptedSynchronizer(params, barrier.DefaultCostOptions())
		if err != nil {
			return nil, err
		}
		rm := reseeded(m, int64(500+p))
		base, err := bsp.Run(rm, SyncExchangeProgram)
		if err != nil {
			return nil, err
		}
		adapted, err := bsp.RunWith(rm, sync, SyncExchangeProgram)
		if err != nil {
			return nil, err
		}
		return []AdaptedSyncPoint{{
			Procs:         p,
			Best:          res.Best.Name,
			Predicted:     res.Best.Predicted,
			Dissemination: base.MakeSpan,
			Adapted:       adapted.MakeSpan,
		}}, nil
	})
}

// AdaptedSyncTable renders the synchronizer comparison.
func AdaptedSyncTable(title string, points []AdaptedSyncPoint) *Table {
	t := &Table{Title: title, Columns: []string{"P", "selected schedule", "predicted sync [s]", "dissemination run [s]", "adapted run [s]"}}
	for _, p := range points {
		t.AddRow(fmt.Sprintf("%d", p.Procs), p.Best, fmtSeconds(p.Predicted),
			fmtSeconds(p.Dissemination), fmtSeconds(p.Adapted))
	}
	return t
}
