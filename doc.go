// Package hbsp is a Go reproduction of "Performance Modeling of Heterogeneous
// Systems" (Jan Christian Meyer, NTNU): a framework that models heterogeneous
// SMP clusters by replacing the scalar BSP parameters with matrices of
// pairwise and per-kernel performance parameters, a matrix-based cost model
// for synchronization and collective schedules, an overlapping BSPlib
// run-time, and the thesis' two case studies — all executed against a
// deterministic virtual-time cluster simulator that stands in for the
// thesis' physical test systems.
//
// The root package is the SDK facade: build a machine from a platform
// profile (package cluster), wrap it in a Session with functional options,
// and run raw simulator, BSP or MPI programs against it with a cancellable
// context:
//
//	machine, err := cluster.Xeon8x2x4().Machine(16)
//	if err != nil {
//		log.Fatal(err)
//	}
//	sess, err := hbsp.New(machine,
//		hbsp.WithSeed(42),
//		hbsp.WithDeadline(30*time.Second),
//	)
//	if err != nil {
//		log.Fatal(err)
//	}
//	res, err := sess.RunBSP(ctx, func(c *bsp.Ctx) error {
//		sum, err := c.AllReduce([]float64{float64(c.Pid())}, bsp.OpSum)
//		if err != nil {
//			return err
//		}
//		_ = sum // identical on every process
//		return c.Sync()
//	})
//
// Runs return typed errors (ErrDeadline, ErrAborted, ErrInvalidMachine) and
// bit-identical virtual times to the internal engines, pinned by golden
// tests.
//
// # Observability
//
// Attach a trace.Recorder with WithRecorder to record every event of a run
// (sends, receive waits, compute intervals, superstep and collective-stage
// boundaries) into per-rank lock-free lanes, merged deterministically after
// the run — two runs with the same WithSeed produce byte-identical traces:
//
//	rec := trace.NewRecorder()
//	sess, err := hbsp.New(machine, hbsp.WithSeed(42), hbsp.WithRecorder(rec))
//	if err != nil {
//		log.Fatal(err)
//	}
//	if _, err := sess.RunBSP(ctx, program); err != nil {
//		log.Fatal(err)
//	}
//	tr, err := rec.Trace()
//	if err != nil {
//		log.Fatal(err)
//	}
//	cp := tr.CriticalPath()            // gating chain; cp.End == makespan
//	bd := tr.Breakdown()               // compute / send / straggler / latency
//	trace.WriteReport(os.Stdout, tr, trace.ReportOptions{})
//	trace.WriteChrome(f, tr)           // load f in chrome://tracing or Perfetto
//
// The recorder is the one way to watch a run: every BSP Sync and every MPI
// Barrier leaves a trace.KindSuperstep mark per rank at its virtual time,
// which the breakdown, h-relation and rollup passes read after the run.
// See cmd/hbsptrace for a ready-made front-end and examples/tracing for a
// runnable walkthrough.
//
// # Execution engines
//
// Two engines execute simulated workloads, always with bit-identical virtual
// times, traffic counters and recorded traces:
//
//   - The concurrent engine runs every rank as a goroutine against indexed
//     mailboxes. It executes arbitrary simulated code — closures, data
//     movement, irregular communication — and is the reference the golden
//     tests pin.
//
//   - The direct discrete-event evaluator (package sched) computes virtual
//     times from the LogGP recurrence with no goroutine per rank, no
//     mailboxes and no channel wake-ups. Workloads whose communication
//     structure is fixed before they run — verified collective schedules, the
//     superstep count exchange, straight-line sim.Program op-streams — are
//     evaluated stage by stage, 5–10x faster at P ≥ 256, and scale to rank
//     counts (P = 4096) the concurrent engine cannot reach. Above a threshold
//     width an unrecorded stage walk is split across up to GOMAXPROCS workers
//     in contiguous rank blocks; recorded runs are walked by one.
//
// The cost model itself exists once: one LogGP kernel holds what a compute
// interval, a send, a receive completion and a wait do to a rank's clock,
// ports and noise position, with the fault hooks and the trace events they
// record, and both engines call it. The engines differ in who orders the
// operations and how a receive finds its message — which is what the
// cross-engine tests pin — never in what an operation costs. A message is
// billed through one pricing call per ordered pair (sim.PairPricer's Pair:
// latency, gap, inverse bandwidth, overhead, the return latency of the ack
// leg and NIC sharing, classified and hashed once), resolved once per run;
// the sender's gap term travels with the message, so receive completions
// never consult the machine. A machine has
// a single O(P) representation — per-class link columns plus the per-pair
// heterogeneity hash, never P×P matrices — and the direct evaluator keeps
// each stage's deliveries in one flat inbox indexed by a prefix sum over the
// in-degrees.
//
// By default the two cooperate: runs execute concurrently, and every
// schedule-expressible collective — a collective.Execute pattern execution,
// the count exchange ending a bsp Sync, an mpi schedule flood (which backs
// the bsp.Ctx and mpi.Comm collectives) — brings all ranks to a rendezvous
// where the last arriver evaluates the whole collective at once and resumes
// everyone. The pairwise benchmark (bench.MeasurePairwise, behind
// bench.ModelParams) is evaluated there too: a strict ping-pong gives
// goroutines nothing to overlap, so the last arriver steps every pair's
// messages through the evaluator one at a time. Arbitrary closures around
// the collectives still run concurrently, so the fast path is invisible
// except in wall-clock time. On either engine a collective's messages are
// signals; its data is one board per call, which each rank writes its
// contribution into and reads through the schedule's reach set, O(P +
// edges) per call.
// WithConcurrentEngine (or sim.EngineConcurrent) opts a session out, forcing
// every message through the mailboxes — useful for engine diffing and for
// programs that break the collective-call contract the rendezvous relies on.
// Whole workloads can also be evaluated without a goroutine per rank via
// sched.RunSchedule and sched.RunProgram.
//
// On top of the direct evaluator, symmetry collapse detects rank-equivalence
// classes — a pairwise-uniform machine (cluster.FlatCluster, or any
// homogeneous profile) plus a rank-symmetric schedule (the circulant
// generators, the dissemination count exchange) — and evaluates one
// representative rank per class, each rank's time read off its class.
// Times, makespan and traffic counters stay bit-identical to per-rank
// evaluation. Where the collapse does not apply the evaluator falls back to
// per-rank evaluation and reports the decision in Result.Collapse: whether
// it was applied, how many equivalence classes it used, and on fallback the
// reason — one of the sim.CollapseReason* constants, in the precedence
// sim.Collapse documents. The collapse is what takes direct sweeps from
// P = 4096 to P = 1M. It is on by default; WithSymmetryCollapse(false) (or
// sim.CollapseOff) forces per-rank evaluation everywhere — the escape hatch,
// and the control column when diffing the two paths.
//
// For parameter sweeps — many points varying payload size, LogGP link
// scaling or seed over one schedule family — sched.NewSweepEvaluator keeps
// the evaluator arena, the compiled fault plan and the memoized collapse
// partitions alive across points. Each point runs through the direct
// engine's one run frame with the body sched.RunSchedule hands it, every pair
// priced live by the machine, so it is bit-identical to an independent
// sched.RunSchedule call. The experiments
// sweep series (experiments.BytesSweepSeries, experiments.ScaleSweepSeries)
// and the server's NDJSON sweep path run on it; SweepEvaluator.Stats reports
// what was reused.
//
// # Fault injection
//
// WithFaults attaches a fault.Plan — deterministic, seeded, validated
// against the machine at New time (ErrInvalidFault) — and both engines
// honor it bit-identically. The scenarios a plan expresses:
//
//   - Stragglers: fault.Slowdown multiplies one rank's compute/noise draws
//     by a factor, optionally jittered and confined to a virtual-time
//     window.
//   - Link degradation: fault.LinkRule multiplies latency and transfer time
//     of messages matched by source, destination and/or distance class
//     (wildcards with -1; class rules target e.g. every cross-group cable
//     of a cluster.FatTreeCluster or cluster.DragonflyCluster machine).
//   - Fail-stop crashes: fault.FailStop kills a rank at a virtual time and
//     charges restart plus recomputation back to the last checkpoint;
//     surviving ranks stall at their next rendezvous with the failed rank,
//     and the recovery is recorded as a "fault" trace event.
//
// A nil plan costs the hot paths a single pointer test. Under symmetry
// collapse, fault-touched ranks split into their own equivalence classes
// while the untouched rest keeps collapsing; fully asymmetric plans fall
// back to per-rank evaluation with Result.Collapse.Reason == "fault".
// See the experiments package (StragglerSeries, RecoverySeries) for
// predicted-vs-simulated validation of the injections.
//
// # Server mode
//
// The server package (daemon: cmd/hbspd) exposes the stack over HTTP for
// non-Go clients: POST a profile (cluster preset, custom profile, or raw
// pairwise matrices), a workload (collectives, barriers, BSP supersteps,
// the stencil, or a sim.Program op-stream), an optional fault.Plan and
// optional sweep axes to /v1/predict; single points return one JSON object
// and sweeps stream NDJSON in deterministic row-major order. Because
// virtual times are deterministic, responses are cached as rendered bytes
// in a bounded LRU keyed by the semantic tuple (profile fingerprint,
// workload, P, bytes, seed, engine, collapse mode, fault fingerprint,
// parameter scale, per-rank/trace flags) — cluster.Profile.Fingerprint and
// fault.Plan.Fingerprint are the stable content hashes behind the key, so
// any parameter change is automatically a new cache entry and identical
// bodies are answered byte-identically (cache status travels in the
// X-Hbspd-Cache header). Identical concurrent misses coalesce into a
// single evaluation; a global concurrency limiter sheds excess load with
// 429; per-request budgets are the evaluation's deadline (408); client
// disconnects tear the evaluation down via the request context (499). Every
// evaluation route reads one cache of verified schedules, streamed O(stages)
// values for every collective, so a total exchange at P=1024 is a 16 KB
// entry. What the direct evaluator can price from a schedule alone never
// spawns a rank goroutine, traced or not: the sync workload is walked
// superstep by superstep around its count exchange, and each cache-missed
// collective point runs on a sched sweep evaluator of its own, built with the
// request's options, recorder and budget and released when the point ends
// (/metrics counts the evaluations per route). A sweep is admitted as one
// unit of load and its points are evaluated in order on the request's
// goroutine, the first failing point ending the stream. A panic inside an
// evaluation costs that request a 500, nothing else. See the server package
// documentation for the wire format.
//
// The public packages layer as follows: cluster (platform profiles,
// topologies, machines) feeds sim (the virtual-time simulator), on which bsp
// (the BSPlib run-time with user collectives and the pluggable superstep
// synchronizer) and mpi (point-to-point and schedule-driven collectives) are
// built; collective holds the schedule engine (edge-list patterns and
// streamed generators — one schedule type, which verification, the cost
// model, the pattern simulator, the schedule synchronizer and every
// collective of bsp and mpi take — and the model-driven adaptation), bench
// the measurement procedures, kernels and matrix the modeling vocabulary,
// stencil Case Study II, trace the recording and analysis subsystem, fault
// the deterministic fault/straggler injection plans, server the prediction
// service, and experiments the evaluation driver. See README.md for the
// package map and a migration table from the pre-facade internal API.
package hbsp
