package hbsp

import (
	"context"
	"errors"
	"fmt"
	"time"

	"hbsp/bench"
	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/fault"
	"hbsp/mpi"
	"hbsp/sched"
	"hbsp/sim"
	"hbsp/trace"
)

// Typed errors of the facade. Errors returned by a Session wrap these
// sentinels, so callers dispatch with errors.Is.
var (
	// ErrInvalidMachine is wrapped by New when the machine (or the profile it
	// was instantiated from) fails validation.
	ErrInvalidMachine = errors.New("hbsp: invalid machine")
	// ErrOption is wrapped by New when a functional option is misused (bad
	// value, or an option the machine cannot support).
	ErrOption = errors.New("hbsp: invalid option")
	// ErrDeadline is returned when a run exceeds its wall-clock deadline
	// (usually a deadlocked simulated program).
	ErrDeadline = sim.ErrDeadline
	// ErrAborted is wrapped by the error of a run cancelled through its
	// context.
	ErrAborted = sim.ErrAborted
	// ErrInvalidFault is wrapped by New when a WithFaults plan fails
	// validation against the session's machine.
	ErrInvalidFault = fault.ErrInvalid
)

// Session is the facade's handle on one configured simulated machine: it
// owns the validated machine, the simulator options and the superstep
// synchronizer, and runs raw simulator, BSP and MPI programs against them. A Session is immutable after New and
// safe for concurrent runs — with one exception: a session built with
// WithRecorder must not run concurrently, because its recorder holds exactly
// one run at a time (see WithRecorder).
type Session struct {
	machine sim.Machine
	options sim.Options
	sync    bsp.Synchronizer
}

// Option configures a Session; the With... constructors in this package
// build them. Options are applied in order at New time and may fail, which
// surfaces as an error wrapping ErrOption.
type Option func(*Session) error

// New validates the machine and builds a Session with the supplied
// functional options. Machines instantiated from a cluster.Profile are
// validated against their profile (the check MachineFor lets callers bypass)
// — a broken profile surfaces here as an error wrapping ErrInvalidMachine
// instead of NaN-propagating through a run.
func New(m sim.Machine, opts ...Option) (*Session, error) {
	if m == nil || m.Procs() < 1 {
		return nil, fmt.Errorf("%w: machine with at least one rank required", ErrInvalidMachine)
	}
	if pm, ok := m.(interface{ Profile() *cluster.Profile }); ok {
		if err := pm.Profile().Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidMachine, err)
		}
	}
	s := &Session{
		machine: m,
		options: sim.DefaultOptions(),
		sync:    bsp.DefaultSynchronizer(),
	}
	for _, opt := range opts {
		if opt == nil {
			continue
		}
		if err := opt(s); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// WithSeed derives the machine's deterministic noise stream from the given
// seed. The stream is a pure function of (seed, rank, event sequence), so
// every run on one Session observes the bit-identical jitter — which is what
// makes golden tests possible. To sample run-to-run variance, construct
// sessions with different seeds, one per repetition. The machine must
// support reseeding (cluster machines do).
func WithSeed(seed int64) Option {
	return func(s *Session) error {
		type reseeder interface {
			WithRunSeed(int64) *cluster.Machine
		}
		rm, ok := s.machine.(reseeder)
		if !ok {
			return fmt.Errorf("%w: WithSeed needs a machine supporting WithRunSeed, got %T", ErrOption, s.machine)
		}
		s.machine = rm.WithRunSeed(seed)
		return nil
	}
}

// WithDeadline bounds the real (wall-clock) duration of every run as a guard
// against deadlocked simulated programs; exceeding it returns ErrDeadline.
func WithDeadline(d time.Duration) Option {
	return func(s *Session) error {
		if d <= 0 {
			return fmt.Errorf("%w: non-positive deadline %v", ErrOption, d)
		}
		s.options.Deadline = d
		return nil
	}
}

// WithAckSends controls whether send requests complete only once an
// acknowledgement has returned from the destination (the default, matching
// the thesis' factor-2 stage cost).
func WithAckSends(ack bool) Option {
	return func(s *Session) error {
		s.options.AckSends = ack
		return nil
	}
}

// WithConcurrentEngine disables the direct discrete-event fast path: every
// schedule-expressible collective (pattern executions, superstep count
// exchanges, schedule floods) is walked message by message through
// goroutines and mailboxes instead of being evaluated sequentially at an
// all-ranks rendezvous. Virtual times are bit-identical either way — the
// default (direct) engine is simply 5–10x faster on collective-heavy runs —
// so this option exists for engine diffing and for programs that break the
// collective-call contract the rendezvous relies on (e.g. only a subset of
// ranks executing a collective).
func WithConcurrentEngine() Option {
	return func(s *Session) error {
		s.options.Engine = sim.EngineConcurrent
		return nil
	}
}

// WithSymmetryCollapse controls symmetry-collapsed direct evaluation. With
// enabled=true — the default, so the option exists to spell the default out
// — the direct evaluator detects rank-equivalence classes (homogeneous
// machine, symmetric schedule, no trace recorder) and evaluates one
// representative rank per class and reads each rank's time off its class;
// virtual times, makespan and traffic counters are bit-identical
// to per-rank evaluation wherever the collapse applies, and evaluation falls
// back silently where it does not. enabled=false forces per-rank evaluation
// everywhere (the escape hatch, and the engine-diffing control).
func WithSymmetryCollapse(enabled bool) Option {
	return func(s *Session) error {
		if enabled {
			s.options.SymmetryCollapse = sim.CollapseAuto
		} else {
			s.options.SymmetryCollapse = sim.CollapseOff
		}
		return nil
	}
}

// WithFaults injects a deterministic fault scenario into every run of the
// session: per-rank slowdowns (stragglers), link-degradation windows, and
// fail-stop crashes with checkpoint/restart cost accounting (package fault).
// Both engines honor the plan bit-identically, and the same seed plus the
// same plan reproduces the same virtual times and traces. The plan is
// validated against the machine here; a malformed plan surfaces as an error
// wrapping ErrInvalidFault.
func WithFaults(plan *fault.Plan) Option {
	return func(s *Session) error {
		if plan == nil {
			return fmt.Errorf("%w: nil fault plan (omit WithFaults instead)", ErrOption)
		}
		if err := plan.Validate(s.machine.Procs()); err != nil {
			return fmt.Errorf("hbsp: %w", err)
		}
		if _, ok := s.machine.(interface{ PairClass(i, j int) uint8 }); !ok {
			for _, l := range plan.Links {
				if l.Class >= 0 {
					return fmt.Errorf("hbsp: %w: link rule matches distance class %d but machine %T does not expose pair classes",
						ErrInvalidFault, l.Class, s.machine)
				}
			}
		}
		s.options.Faults = plan
		return nil
	}
}

// WithSynchronizer installs the synchronizer that performs the count total
// exchange ending every BSP superstep: bsp.DefaultSynchronizer, or a verified
// schedule wrapped by bsp.NewScheduleSynchronizer / NewAdaptedSynchronizer
// (the interface is closed; those constructors are the implementations).
func WithSynchronizer(sync bsp.Synchronizer) Option {
	return func(s *Session) error {
		if sync == nil {
			return fmt.Errorf("%w: nil synchronizer", ErrOption)
		}
		s.sync = sync
		return nil
	}
}

// WithScheduleSynchronizer wraps a collective schedule — a pattern's edge
// lists or a streamed one; it must deliver every rank's counts to every rank —
// as the superstep synchronizer.
func WithScheduleSynchronizer(sch sched.Schedule) Option {
	return func(s *Session) error {
		sync, err := bsp.NewScheduleSynchronizer(sch)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrOption, err)
		}
		s.sync = sync
		return nil
	}
}

// WithAdaptedSynchronizer benchmarks the machine's pairwise parameter
// matrices (reps repetitions per pair), runs the model-driven greedy
// construction with the count payload each candidate would carry, and
// installs the winning hybrid schedule as the superstep synchronizer — the
// Chapter 7 adaptation as one option. The benchmark simulates the machine,
// so this option does measurable work at New time.
func WithAdaptedSynchronizer(reps int) Option {
	return func(s *Session) error {
		params, err := bench.ModelParams(s.machine, reps)
		if err != nil {
			return fmt.Errorf("%w: %v", ErrOption, err)
		}
		sync, _, err := bsp.NewAdaptedSynchronizer(params, collective.DefaultCostOptions())
		if err != nil {
			return fmt.Errorf("%w: %v", ErrOption, err)
		}
		s.sync = sync
		return nil
	}
}

// WithRecorder attaches a trace.Recorder to every run of the session: the
// simulator records message injections, receive completions, compute
// intervals and superstep/stage boundaries into per-rank lock-free lanes,
// and after the run rec.Trace() yields the merged deterministic trace for
// analysis (critical path, time breakdowns, h-relations) and export (Chrome
// trace JSON, text report).
//
// A recorder holds one run at a time: each run of the session overwrites the
// previous recording, and a session carrying a recorder loses the Session's
// usual concurrent-run safety — serialize its runs (or build one session per
// goroutine, each with its own recorder, as the parallel sweep engine does).
// Passing trace.Disabled (the nil recorder) is rejected — omit the option
// instead.
func WithRecorder(rec *trace.Recorder) Option {
	return func(s *Session) error {
		if !rec.Enabled() {
			return fmt.Errorf("%w: nil recorder (construct one with trace.NewRecorder, or omit WithRecorder)", ErrOption)
		}
		s.options.Recorder = rec
		return nil
	}
}

// Procs returns the machine's rank count.
func (s *Session) Procs() int { return s.machine.Procs() }

// Run executes body once per rank of the machine as a raw simulator program
// and returns the per-rank virtual finishing times. Cancelling the context
// aborts the run (every rank blocked in a receive unwinds before Run
// returns) with an error wrapping ErrAborted.
func (s *Session) Run(ctx context.Context, body func(p *sim.Proc) error) (*sim.Result, error) {
	return sim.Run(ctx, s.machine, body, s.options)
}

// RunBSP executes the SPMD program under the BSP run-time with the session's
// synchronizer ending every superstep.
func (s *Session) RunBSP(ctx context.Context, program bsp.Program) (*sim.Result, error) {
	m, ok := s.machine.(bsp.Machine)
	if !ok {
		return nil, fmt.Errorf("%w: BSP programs need per-rank kernel timing (bsp.Machine), got %T", ErrInvalidMachine, s.machine)
	}
	opts := s.options
	return bsp.RunContext(ctx, m, bsp.RunConfig{Sync: s.sync, Options: &opts}, program)
}

// RunProgram evaluates a sim.Program op-stream — the timing skeleton of a
// workload with every operand fixed up front — and returns the per-rank
// virtual finishing times. Under the default engine the program is compiled
// and evaluated by the goroutine-free discrete-event evaluator
// (sched.RunProgram); WithConcurrentEngine replays it through goroutines and
// mailboxes instead (sched.RunProgram hands it to sim.RunProgram). Virtual
// times are bit-identical either way.
func (s *Session) RunProgram(ctx context.Context, pr *sim.Program) (*sim.Result, error) {
	if pr == nil {
		return nil, fmt.Errorf("%w: nil program", ErrOption)
	}
	if pr.Procs() != s.machine.Procs() {
		return nil, fmt.Errorf("%w: program built for %d ranks, machine has %d", ErrOption, pr.Procs(), s.machine.Procs())
	}
	return sched.RunProgram(ctx, s.machine, pr, s.options)
}

// RunMPI executes body once per rank under the MPI-flavoured layer. A
// recorded run (WithRecorder) marks every completed Barrier as a superstep
// boundary, the same trace.KindSuperstep mark a BSP Sync leaves.
func (s *Session) RunMPI(ctx context.Context, body func(c *mpi.Comm) error) (*sim.Result, error) {
	return mpi.RunContext(ctx, s.machine, body, s.options)
}
