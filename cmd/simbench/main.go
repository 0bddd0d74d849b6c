// Command simbench is the machine-readable benchmark harness of the
// virtual-time simulator: it measures the point-to-point hot path (Send/Recv,
// untraced and with a trace recorder attached), the dissemination BSP
// synchronization and the total-exchange collective, and writes ns/op,
// allocs/op and simulated messages/s to a JSON file (BENCH_simnet.json at the
// repository root is the tracked baseline — regenerate it with
// `go run ./cmd/simbench` after touching the simulator hot path and commit
// the diff, so the perf trajectory is visible across PRs).
//
// Two engines are tracked side by side. The plain entries (send_recv,
// sync_dissemination, total_exchange, ...) force the concurrent engine —
// goroutines, mailboxes, channel wake-ups — at P ∈ {16, 64, 256, 512}; the
// *_de entries run the same workloads through the goroutine-free
// discrete-event evaluator at P ∈ {16, 64, 256, 512, 1024, 4096}, rank
// counts the concurrent engine cannot reach in CI time. The two engines
// produce bit-identical virtual times (pinned by the cross-engine golden
// tests), so every ns/op delta between a plain entry and its _de twin is
// pure execution-strategy speedup.
//
// The *_sym entries push further: on a flat homogeneous machine the direct
// evaluator collapses all ranks into one equivalence class and evaluates one
// representative rank per stage, so the dissemination count exchange and the
// streaming total exchange are measured at P ∈ {65536, 262144} (quick mode:
// one P=65536 smoke point), plus a P=1,048,576 count-exchange point in full
// mode. Collapse results are bit-identical to per-rank evaluation (pinned by
// the collapse golden tests).
//
// Usage:
//
//	go run ./cmd/simbench [-quick] [-out BENCH_simnet.json] [-diff BENCH_simnet.json] [-tol 0.10]
//
// -quick restricts the sweep to P ∈ {16, 64} with a single iteration per
// benchmark (after one untimed warm-up, so pools and caches are hot). -diff
// compares the allocs/op of every measured entry against the committed
// baseline and exits non-zero when one regresses by more than -tol. CI does
// not run it: the concurrent entries' allocs/op move with sync.Pool refills
// after a GC, and the deterministic direct-path counts are pinned by
// TestRunScheduleSteadyStateAllocs in internal/sched.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"testing"

	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/experiments"
	"hbsp/fault"
	"hbsp/sched"
	"hbsp/sim"
	"hbsp/trace"
)

// Entry is one benchmark point of the JSON baseline.
type Entry struct {
	Name           string  `json:"name"`
	Procs          int     `json:"procs"`
	NsPerOp        float64 `json:"ns_per_op"`
	AllocsPerOp    int64   `json:"allocs_per_op"`
	BytesPerOp     int64   `json:"bytes_per_op"`
	MessagesPerSec float64 `json:"messages_per_sec"`
	Iterations     int     `json:"iterations"`
}

// Baseline is the file format of BENCH_simnet.json.
type Baseline struct {
	Schema    string  `json:"schema"`
	GoVersion string  `json:"go_version"`
	Quick     bool    `json:"quick"`
	Entries   []Entry `json:"entries"`
}

// concurrentOpts forces the per-message concurrent engine, the "before"
// column of the two-engine baseline.
func concurrentOpts() sim.Options {
	o := sim.DefaultOptions()
	o.Engine = sim.EngineConcurrent
	return o
}

func main() {
	log.SetFlags(0)
	quick := flag.Bool("quick", false, "P ∈ {16,64} and one iteration per benchmark (smoke mode)")
	out := flag.String("out", "BENCH_simnet.json", "output JSON path")
	diff := flag.String("diff", "", "baseline JSON to compare allocs/op against")
	tol := flag.Float64("tol", 0.10, "relative allocs/op tolerance for -diff")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile covering the whole sweep to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile (taken after the sweep) to this file")
	testing.Init()
	flag.Parse()
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("simbench: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("simbench: -cpuprofile: %v", err)
		}
	}
	if *quick {
		// One iteration per benchmark instead of the 1s default.
		if err := flag.Set("test.benchtime", "1x"); err != nil {
			log.Fatalf("simbench: %v", err)
		}
	}

	sweep := []int{16, 64, 256, 512}
	deSweep := []int{16, 64, 256, 512, 1024, 4096}
	if *quick {
		sweep = []int{16, 64}
		deSweep = []int{16, 64}
	}

	var entries []Entry
	emit := func(e Entry) {
		entries = append(entries, e)
		fmt.Printf("%-22s P=%-5d %14.0f ns/op %10d allocs/op %14.0f msgs/s\n",
			e.Name, e.Procs, e.NsPerOp, e.AllocsPerOp, e.MessagesPerSec)
	}
	for _, p := range sweep {
		m := benchMachine(p)
		emit(benchSendRecv(m, *quick))
		emit(benchSendRecvTraced(m, *quick))
		emit(benchSendRecvSpill(m, *quick))
		emit(benchSync(m, *quick))
		emit(benchTotalExchange(m, *quick))
	}
	for _, p := range deSweep {
		m := benchMachine(p)
		emit(benchSyncDE(m, *quick))
		emit(benchSyncFault(m, *quick))
		emit(benchTotalExchangeDE(m, *quick))
		emit(benchSweepBytesDE(m, *quick))
		emit(benchSweepScaleDE(p, *quick))
	}
	symSweep := []int{65536, 262144}
	if *quick {
		symSweep = []int{65536}
	}
	for _, p := range symSweep {
		m := symMachine(p)
		emit(benchSyncSym(m, *quick))
		emit(benchTotalExchangeSym(m, *quick))
		emit(benchSweepBytesSym(m, *quick))
	}
	if !*quick {
		// The headline scaling point: one superstep count exchange at a
		// million ranks, feasible only because the collapse evaluates a
		// single representative rank per stage.
		emit(benchSyncSym(symMachine(1<<20), *quick))
	}

	base := Baseline{
		Schema:    "hbsp-simbench/v1",
		GoVersion: runtime.Version(),
		Quick:     *quick,
		Entries:   entries,
	}
	data, err := json.MarshalIndent(base, "", "  ")
	if err != nil {
		log.Fatalf("simbench: %v", err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatalf("simbench: %v", err)
	}
	fmt.Printf("wrote %s\n", *out)

	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Fatalf("simbench: -memprofile: %v", err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatalf("simbench: -memprofile: %v", err)
		}
		f.Close()
	}

	if *diff != "" {
		if err := diffAllocs(*diff, entries, *tol); err != nil {
			log.Fatalf("simbench: %v", err)
		}
	}
}

// diffAllocs compares the measured allocs/op against the committed baseline
// and fails on regressions beyond the tolerance. Entries missing on either
// side are skipped (the quick sweep is a subset of the full baseline);
// improvements beyond the tolerance are reported as a reminder to regenerate
// the baseline, but do not fail.
func diffAllocs(path string, entries []Entry, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	type key struct {
		name  string
		procs int
	}
	committed := map[key]Entry{}
	for _, e := range base.Entries {
		committed[key{e.Name, e.Procs}] = e
	}
	failed := false
	for _, e := range entries {
		b, ok := committed[key{e.Name, e.Procs}]
		if !ok {
			continue
		}
		slack := float64(b.AllocsPerOp) * tol
		if slack < 16 {
			slack = 16 // absolute floor so tiny counts don't flap
		}
		delta := float64(e.AllocsPerOp - b.AllocsPerOp)
		switch {
		case delta > slack:
			fmt.Printf("REGRESSION %-22s P=%-5d allocs/op %d -> %d (+%.1f%%, tolerance %.0f%%)\n",
				e.Name, e.Procs, b.AllocsPerOp, e.AllocsPerOp, 100*delta/float64(b.AllocsPerOp), 100*tol)
			failed = true
		case -delta > slack:
			fmt.Printf("improved   %-22s P=%-5d allocs/op %d -> %d (regenerate the baseline)\n",
				e.Name, e.Procs, b.AllocsPerOp, e.AllocsPerOp)
		}
	}
	if failed {
		return fmt.Errorf("allocs/op regressed against %s", path)
	}
	fmt.Printf("allocs/op within ±%.0f%% of %s\n", 100*tol, path)
	return nil
}

// benchMachine instantiates the shared benchmark machine (see
// cluster.XeonClusterMachine — bench_test.go measures the same platform).
func benchMachine(procs int) *cluster.Machine {
	m, err := cluster.XeonClusterMachine(procs)
	if err != nil {
		log.Fatalf("simbench: machine for %d ranks: %v", procs, err)
	}
	return m
}

// symMachine instantiates the flat homogeneous machine of the *_sym entries:
// one rank per node, every pair identical, so the direct evaluator collapses
// all ranks into one equivalence class (the Xeon benchmark machine carries a
// per-pair heterogeneity spread and stays on the per-rank path).
func symMachine(procs int) *cluster.Machine {
	m, err := cluster.FlatClusterMachine(procs)
	if err != nil {
		log.Fatalf("simbench: flat machine for %d ranks: %v", procs, err)
	}
	return m
}

// entry converts a benchmark result plus the accumulated simulated message
// count into a baseline entry.
func entry(name string, procs int, r testing.BenchmarkResult, messages int64) Entry {
	e := Entry{
		Name:        name,
		Procs:       procs,
		NsPerOp:     float64(r.NsPerOp()),
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		Iterations:  r.N,
	}
	if secs := r.T.Seconds(); secs > 0 {
		e.MessagesPerSec = float64(messages) / secs
	}
	return e
}

// run measures one op under the benchmark harness. In quick mode (one
// iteration) the op runs once untimed first, so pools, caches and compiled
// schedules are warm and allocs/op reflects the steady state the committed
// full-sweep baseline records.
func run(name string, procs int, quick bool, op func() (messages int64, err error)) Entry {
	if quick {
		if _, err := op(); err != nil {
			log.Fatalf("simbench: %s warm-up: %v", name, err)
		}
	}
	var messages atomic.Int64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		// testing.Benchmark calls this closure several times while
		// calibrating b.N, but only the final round's duration is reported:
		// count only that round's messages.
		messages.Store(0)
		for i := 0; i < b.N; i++ {
			n, err := op()
			if err != nil {
				b.Fatal(err)
			}
			messages.Add(n)
		}
	})
	return entry(name, procs, r, messages.Load())
}

// benchSendRecv measures the raw point-to-point path on the shared fixed
// workload (experiments.SendRecvRingProgram): every rank runs a ring of
// eager posts and blocking receives, the minimal program that exercises
// injection ports, mailbox delivery and matching.
func benchSendRecv(m *cluster.Machine, quick bool) Entry {
	return run("send_recv", m.Procs(), quick, func() (int64, error) {
		res, err := sim.Run(context.Background(), m, experiments.SendRecvRingProgram, concurrentOpts())
		if err != nil {
			return 0, err
		}
		return res.Messages, nil
	})
}

// benchSendRecvTraced is benchSendRecv with a trace recorder attached: the
// identical ring workload (the shared experiments.SendRecvRingProgram, so
// the traced/untraced comparison can never drift apart) paying one event
// append per send and wait. The recorder's lanes are pooled across runs, so
// steady state re-records into already-sized blocks.
func benchSendRecvTraced(m *cluster.Machine, quick bool) Entry {
	rec := trace.NewRecorder()
	o := concurrentOpts()
	o.Recorder = rec
	return run("send_recv_traced", m.Procs(), quick, func() (int64, error) {
		res, err := sim.Run(context.Background(), m, experiments.SendRecvRingProgram, o)
		if err != nil {
			return 0, err
		}
		return res.Messages, nil
	})
}

// benchSendRecvSpill is benchSendRecvTraced with the recorder streaming
// full column chunks to a discarding writer instead of retaining lanes in
// RAM — the spill-backed recording mode that carries traced P=65536 runs.
// The delta against send_recv_traced is the pure encode-and-flush cost.
func benchSendRecvSpill(m *cluster.Machine, quick bool) Entry {
	rec := trace.NewRecorder()
	o := concurrentOpts()
	o.Recorder = rec
	return run("send_recv_spill", m.Procs(), quick, func() (int64, error) {
		rec.SpillTo(io.Discard, trace.SpillOptions{})
		res, err := sim.Run(context.Background(), m, experiments.SendRecvRingProgram, o)
		if err != nil {
			return 0, err
		}
		if err := rec.SpillErr(); err != nil {
			return 0, err
		}
		return res.Messages, nil
	})
}

// benchSync measures the dissemination count exchange plus drain that ends
// every BSP superstep, on the same fixed workload every harness uses
// (experiments.SyncExchangeProgram), with the concurrent engine forced.
func benchSync(m *cluster.Machine, quick bool) Entry {
	o := concurrentOpts()
	return run("sync_dissemination", m.Procs(), quick, func() (int64, error) {
		res, err := bsp.RunContext(context.Background(), m, bsp.RunConfig{Options: &o}, experiments.SyncExchangeProgram)
		if err != nil {
			return 0, err
		}
		return res.Messages, nil
	})
}

// benchSyncDE is benchSync on the default engine: the count exchange is
// evaluated at the run's gate by the discrete-event evaluator, the drain and
// the user program stay on their rank goroutines.
func benchSyncDE(m *cluster.Machine, quick bool) Entry {
	return run("sync_dissemination_de", m.Procs(), quick, func() (int64, error) {
		res, err := bsp.RunContext(context.Background(), m, bsp.RunConfig{}, experiments.SyncExchangeProgram)
		if err != nil {
			return 0, err
		}
		return res.Messages, nil
	})
}

// benchSyncFault is benchSyncDE with a fault plan attached — one persistent
// straggler plus a windowed wildcard link degradation — tracking the cost of
// the fault-injection hot path. The fault-free entries (sync_dissemination,
// sync_dissemination_de) double as the control: a plan-less run costs the
// engines a single nil pointer test, so their allocs/op must not move when
// the fault subsystem changes.
func benchSyncFault(m *cluster.Machine, quick bool) Entry {
	o := sim.DefaultOptions()
	o.Faults = &fault.Plan{
		Slowdowns: []fault.Slowdown{{Rank: 0, Factor: 1.5}},
		Links:     []fault.LinkRule{{Src: -1, Dst: -1, Class: -1, LatencyFactor: 2, BetaFactor: 2, Start: 0, End: 1e-3}},
	}
	return run("sync_dissemination_fault", m.Procs(), quick, func() (int64, error) {
		res, err := bsp.RunContext(context.Background(), m, bsp.RunConfig{Options: &o}, experiments.SyncExchangeProgram)
		if err != nil {
			return 0, err
		}
		return res.Messages, nil
	})
}

// benchTotalExchange measures the heaviest collective the schedule engine
// generates — P² payload-carrying messages per execution — with the
// concurrent engine forced (Measure runs one warm-up plus one timed
// repetition).
func benchTotalExchange(m *cluster.Machine, quick bool) Entry {
	pat, err := collective.TotalExchange(m.Procs(), 64)
	if err != nil {
		log.Fatalf("simbench: total exchange for %d ranks: %v", m.Procs(), err)
	}
	o := concurrentOpts()
	return run("total_exchange", m.Procs(), quick, func() (int64, error) {
		if _, err := collective.MeasureWith(m, pat, 1, o); err != nil {
			return 0, err
		}
		return 2 * int64(pat.Signals()), nil
	})
}

// benchTotalExchangeDE measures the same workload — warm-up plus one timed
// execution of the linear-shift total exchange — evaluated with zero
// goroutines by sched.RunSchedule over the streaming schedule, whose O(P)
// stage generation is what makes the P=1024 and P=4096 points of the sweep
// representable at all.
func benchTotalExchangeDE(m *cluster.Machine, quick bool) Entry {
	p := m.Procs()
	stream, err := collective.StreamTotalExchange(p, 64)
	if err != nil {
		log.Fatalf("simbench: streaming total exchange for %d ranks: %v", p, err)
	}
	return run("total_exchange_de", p, quick, func() (int64, error) {
		res, err := sched.RunSchedule(context.Background(), m, stream, 2, sim.DefaultOptions())
		if err != nil {
			return 0, err
		}
		return res.Messages, nil
	})
}

// benchSyncSym measures one superstep count exchange evaluated through the
// symmetry collapse: the dissemination exchange schedule (the exact op-stream
// Sync evaluates, payload sizes included) on a flat homogeneous machine,
// where every rank is equivalent and each of the ⌈log2 P⌉ stages costs O(1)
// evaluation work plus the O(P) result replication.
func benchSyncSym(m *cluster.Machine, quick bool) Entry {
	p := m.Procs()
	s, err := bsp.ExchangeSchedule(p)
	if err != nil {
		log.Fatalf("simbench: exchange schedule for %d ranks: %v", p, err)
	}
	return run("sync_dissemination_sym", p, quick, func() (int64, error) {
		res, err := sched.RunSchedule(context.Background(), m, s, 1, sim.DefaultOptions())
		if err != nil {
			return 0, err
		}
		return res.Messages, nil
	})
}

// benchTotalExchangeSym measures one execution of the streaming linear-shift
// total exchange through the symmetry collapse: P−1 circulant stages, each
// evaluated at a single representative rank.
func benchTotalExchangeSym(m *cluster.Machine, quick bool) Entry {
	p := m.Procs()
	stream, err := collective.StreamTotalExchange(p, 64)
	if err != nil {
		log.Fatalf("simbench: streaming total exchange for %d ranks: %v", p, err)
	}
	return run("total_exchange_sym", p, quick, func() (int64, error) {
		res, err := sched.RunSchedule(context.Background(), m, stream, 1, sim.DefaultOptions())
		if err != nil {
			return 0, err
		}
		return res.Messages, nil
	})
}

// sweepEvalOptions mirrors RunSchedule's conventions (acks on, empty stages
// pay a compute draw, default deadline), so every point of the sweep entries
// is bit-identical to an independent sched.RunSchedule call — the contract
// the cross-engine sweep goldens pin.
func sweepEvalOptions() sched.SweepOptions {
	o := sim.DefaultOptions()
	return sched.SweepOptions{
		AckSends:         o.AckSends,
		SymmetryCollapse: o.SymmetryCollapse,
		ComputeEmpty:     true,
		Deadline:         o.Deadline,
	}
}

// sweepPoints is the point count of the sweep entries: the 64-point sweeps
// the sweep evaluator targets, cut down in quick mode.
func sweepPoints(quick bool) int {
	if quick {
		return 8
	}
	return 64
}

// perPoint renormalizes a whole-sweep measurement to per-point figures, the
// unit the sweep_* entries report so they compare directly against the
// single-point entries (total_exchange_de evaluates one point per op).
func perPoint(e Entry, points int) Entry {
	e.NsPerOp /= float64(points)
	e.AllocsPerOp /= int64(points)
	e.BytesPerOp /= int64(points)
	return e
}

// benchSweepBytesDE measures a bytes-axis sweep — sweepPoints distinct
// total-exchange payloads at one rank count — through a single reused
// sched.SweepEvaluator on the heterogeneous Xeon machine. Every point is
// priced live like an independent run, on a kept arena and a compiled-once
// fault plan, so the per-point ns/op against total_exchange_de (one
// independent evaluation per op) is what keeping the evaluator saves.
func benchSweepBytesDE(m *cluster.Machine, quick bool) Entry {
	p := m.Procs()
	points := sweepPoints(quick)
	payloads := make([]int, points)
	for i := range payloads {
		payloads[i] = 16 * (i + 1)
	}
	sw, err := sched.NewSweepEvaluator(m, sweepEvalOptions())
	if err != nil {
		log.Fatalf("simbench: sweep evaluator for %d ranks: %v", p, err)
	}
	defer sw.Release()
	e := run("sweep_bytes_de", p, quick, func() (int64, error) {
		var msgs int64
		for _, pl := range payloads {
			s, err := collective.StreamTotalExchange(p, pl)
			if err != nil {
				return 0, err
			}
			res, err := sw.Run(context.Background(), m, s, 1)
			if err != nil {
				return 0, err
			}
			msgs += res.Messages
		}
		return msgs, nil
	})
	return perPoint(e, points)
}

// benchSweepScaleDE measures a LogGP-scale sweep: sweepPoints points cycling
// through eight uniform link scalings of the Xeon profile, evaluated on one
// reused SweepEvaluator at a fixed payload. The machines are term-compatible
// with the base, so the evaluator is never rebased; the entry tracks a point
// whose machine changes where sweep_bytes_de tracks one whose schedule does.
func benchSweepScaleDE(procs int, quick bool) Entry {
	points := sweepPoints(quick)
	factors := [...]float64{1, 1.25, 1.5, 2, 0.75, 0.5, 3, 1.1}
	nodes := (procs + 7) / 8
	if nodes < 1 {
		nodes = 1
	}
	prof := cluster.XeonCluster(nodes)
	prof.NoiseRel = 0 // the shared benchmark machine is noise-free
	base, err := prof.Machine(procs)
	if err != nil {
		log.Fatalf("simbench: machine for %d ranks: %v", procs, err)
	}
	machines := make([]*cluster.Machine, len(factors))
	for i, f := range factors {
		machines[i], err = prof.Scaled(f, f, f, f).Machine(procs)
		if err != nil {
			log.Fatalf("simbench: scaled machine for %d ranks: %v", procs, err)
		}
	}
	stream, err := collective.StreamTotalExchange(procs, 64)
	if err != nil {
		log.Fatalf("simbench: streaming total exchange for %d ranks: %v", procs, err)
	}
	sw, err := sched.NewSweepEvaluator(base, sweepEvalOptions())
	if err != nil {
		log.Fatalf("simbench: sweep evaluator for %d ranks: %v", procs, err)
	}
	defer sw.Release()
	e := run("sweep_scale_de", procs, quick, func() (int64, error) {
		var msgs int64
		for i := 0; i < points; i++ {
			res, err := sw.Run(context.Background(), machines[i%len(factors)], stream, 1)
			if err != nil {
				return 0, err
			}
			msgs += res.Messages
		}
		return msgs, nil
	})
	return perPoint(e, points)
}

// benchSweepBytesSym is the bytes-axis sweep on the flat homogeneous machine:
// the symmetry collapse evaluates one representative rank per circulant stage
// and the sweep evaluator reuses its memoized partition across payloads, so
// the per-point cost at P=65536+ is dominated by the O(P) result replication.
func benchSweepBytesSym(m *cluster.Machine, quick bool) Entry {
	p := m.Procs()
	points := sweepPoints(quick)
	payloads := make([]int, points)
	for i := range payloads {
		payloads[i] = 16 * (i + 1)
	}
	sw, err := sched.NewSweepEvaluator(m, sweepEvalOptions())
	if err != nil {
		log.Fatalf("simbench: sweep evaluator for %d ranks: %v", p, err)
	}
	defer sw.Release()
	e := run("sweep_bytes_sym", p, quick, func() (int64, error) {
		var msgs int64
		for _, pl := range payloads {
			s, err := collective.StreamTotalExchange(p, pl)
			if err != nil {
				return 0, err
			}
			res, err := sw.Run(context.Background(), m, s, 1)
			if err != nil {
				return 0, err
			}
			msgs += res.Messages
		}
		return msgs, nil
	})
	return perPoint(e, points)
}
