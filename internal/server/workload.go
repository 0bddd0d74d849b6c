package server

import (
	"fmt"
	"math"
	"math/bits"
	"strings"

	"hbsp/collective"
	"hbsp/internal/bsp"
	"hbsp/internal/mpi"
	"hbsp/internal/sched"
	"hbsp/internal/stencil"
	"hbsp/sim"
)

// Workload defaults.
const (
	defaultBytes          = 8
	defaultSupersteps     = 3
	defaultComputeSeconds = 5e-6
	defaultGrid           = 128
	defaultIterations     = 2
)

// field is a group of WorkloadSpec fields a kind fills defaults for and
// checks; fields a kind does not name are neither filled nor checked.
type field uint8

const (
	// fieldBytes: bytes, default 8, in [0, MaxInt64/(2·P²)]; the only field
	// sweep.bytes overrides. A kind with bytes but without fieldRoot refuses
	// a root.
	fieldBytes field = 1 << iota
	// fieldRoot: root in [0, procs).
	fieldRoot
	// fieldSupersteps: supersteps (default 3, >= 1) and computeSeconds
	// (default 5e-6, >= 0), on at least 2 ranks, with a traffic that fits in
	// int64 (syncTraffic).
	fieldSupersteps
	// fieldGrid: grid (default 128, in [3, stencilGridLimit]) and iterations
	// (default 2, >= 1), decomposable over procs; the reply carries
	// perIteration.
	fieldGrid
	// fieldRanks: one valid op-stream per rank.
	fieldRanks
)

// variant is one variant of a workload kind. A variant with a generator names
// the schedule the server builds for it: a pattern, verified against the
// semantics it carries.
type variant struct {
	name string
	gen  func(procs, root, bytes int) (*collective.Pattern, error) // nil: no schedule
}

// kind is one row of the workload-kind table, everything the server decides
// per kind. A row has exactly one shape:
//   - a schedule row (comm set) is one execution of its variant's verified
//     schedule: priced on a sweep evaluator, or under engine "concurrent"
//     comm called on every rank;
//   - a static row (static set) is supersteps from one bsp.Static
//     description, which needs a kernel-rate model (a profile-backed machine);
//   - the program row (neither) is an op-stream per rank.
type kind struct {
	name     string
	variants []variant // the default first; one unnamed entry for a kind without variants
	fields   field
	comm     func(c *mpi.Comm, sch sched.Schedule, root int) error
	static   func(w *WorkloadSpec, procs int) (*bsp.Static, error)
}

// kinds is the workload-kind table, in the order WorkloadSpec documents.
var kinds = []kind{
	{name: "barrier", variants: []variant{
		{"dissemination", dissemination},
		{"tree", func(p, _, _ int) (*collective.Pattern, error) { return collective.Tree(p) }},
		{"linear", func(p, _, _ int) (*collective.Pattern, error) { return collective.Linear(p, 0) }},
	}, comm: func(c *mpi.Comm, sch sched.Schedule, _ int) error {
		return c.BarrierSchedule(sch)
	}},
	{name: "broadcast", variants: []variant{{"", collective.Broadcast}},
		fields: fieldBytes | fieldRoot, comm: func(c *mpi.Comm, sch sched.Schedule, root int) error {
			_, err := c.BcastSchedule(sch, root, float64(c.Rank()))
			return err
		}},
	{name: "reduce", variants: []variant{{"", collective.Reduce}},
		fields: fieldBytes | fieldRoot, comm: func(c *mpi.Comm, sch sched.Schedule, root int) error {
			_, err := c.ReduceSchedule(sch, root, float64(c.Rank()), mpi.OpSum)
			return err
		}},
	{name: "allreduce", variants: []variant{{"", rootless(collective.AllReduce)}},
		fields: fieldBytes, comm: func(c *mpi.Comm, sch sched.Schedule, _ int) error {
			_, err := c.AllreduceSchedule(sch, float64(c.Rank()), mpi.OpSum)
			return err
		}},
	{name: "allgather", variants: []variant{{"", rootless(collective.AllGather)}},
		fields: fieldBytes, comm: func(c *mpi.Comm, sch sched.Schedule, _ int) error {
			_, err := c.AllgatherSchedule(sch, float64(c.Rank()))
			return err
		}},
	{name: "totalexchange", variants: []variant{{"", rootless(collective.TotalExchange)}},
		fields: fieldBytes, comm: func(c *mpi.Comm, sch sched.Schedule, _ int) error {
			blocks := make([]any, c.Size())
			for i := range blocks {
				blocks[i] = float64(c.Rank()*len(blocks) + i)
			}
			_, err := c.TotalExchangeSchedule(sch, blocks)
			return err
		}},
	{name: "sync", variants: []variant{
		{name: "dissemination"},
		{"schedule", dissemination},
	}, fields: fieldSupersteps, static: syncStatic},
	{name: "stencil", variants: []variant{{}}, fields: fieldGrid, static: func(w *WorkloadSpec, procs int) (*bsp.Static, error) {
		return stencil.Static(procs, stencil.Config{N: w.Grid, Iterations: w.Iterations, C: 0.25, Synthetic: true}, 1)
	}},
	{name: "program", variants: []variant{{}}, fields: fieldRanks},
}

// dissemination adapts the dissemination barrier's generator.
func dissemination(p, _, _ int) (*collective.Pattern, error) { return collective.Dissemination(p) }

// rootless adapts a generator of an unrooted collective.
func rootless(gen func(p, bytes int) (*collective.Pattern, error)) func(p, root, bytes int) (*collective.Pattern, error) {
	return func(p, _, bytes int) (*collective.Pattern, error) { return gen(p, bytes) }
}

// syncStatic is the reference BSP workload: per superstep, placement-skewed
// compute (four classes) and one put around a ring whose stride grows by one
// each superstep.
func syncStatic(w *WorkloadSpec, _ int) (*bsp.Static, error) {
	base, steps := w.ComputeSeconds, w.Supersteps
	return &bsp.Static{
		Supersteps: steps,
		Step: func(step, pid, p int, ops sched.Ops) {
			if step < steps {
				ops.Compute(sched.Work{Seconds: base * float64(1+(pid+step)%4)})
				ops.Put((pid+1+step)%p, 1)
			}
		},
	}, nil
}

// syncTraffic is the bytes a sync run moves (syncStatic under either
// synchronizer, whose stages are sized alike), and false when that overflows
// int64: one count exchange per superstep and one before the first, each
// stage of it a message of its size from every rank; and one put of one value
// per rank and superstep. The exchange's sizes are read off its O(log P)
// stages, so nothing is sized from P.
func syncTraffic(procs, supersteps int) (int64, bool) {
	ex, err := bsp.ExchangeSchedule(procs)
	if err != nil {
		return 0, false
	}
	c, ok := sched.AsCirculant(ex)
	if !ok {
		return 0, false
	}
	exchange := int64(0)
	for k := range c.NumStages() {
		if off, size := c.CirculantStage(k); off != 0 {
			if exchange, ok = mulAdd(exchange, size, procs); !ok {
				return 0, false
			}
		}
	}
	total, ok := mulAdd(0, int(exchange), supersteps+1)
	if !ok {
		return 0, false
	}
	return mulAdd(total, supersteps, procs*bsp.PutBytes(1))
}

// mulAdd returns acc + a·b for non-negative operands, and false when that
// exceeds MaxInt64.
func mulAdd(acc int64, a, b int) (int64, bool) {
	hi, lo := bits.Mul64(uint64(a), uint64(b))
	sum, carry := bits.Add64(lo, uint64(acc), 0)
	return int64(sum), hi == 0 && carry == 0 && sum <= math.MaxInt64
}

// kindOf returns the table row of a workload kind, nil for an unknown one.
func kindOf(name string) *kind {
	for i := range kinds {
		if kinds[i].name == name {
			return &kinds[i]
		}
	}
	return nil
}

// variant returns the row's variant of that name, nil for an unknown one.
func (k *kind) variant(name string) *variant {
	for i := range k.variants {
		if k.variants[i].name == name {
			return &k.variants[i]
		}
	}
	return nil
}

// normalizeWorkload validates a WorkloadSpec against the point's rank count
// and fills the defaults in place (the filled spec is what cache keys are
// computed from, so "bytes omitted" and "bytes: 8" share an entry), reading
// the kind's row: its variants, then its fields.
func normalizeWorkload(w *WorkloadSpec, procs int) error {
	k := kindOf(w.Kind)
	switch {
	case w.Kind == "":
		return badRequestf("workload.kind is required")
	case k == nil:
		return badRequestf("unknown workload kind %q", w.Kind)
	case k.variants[0].name == "":
		if w.Variant != "" {
			return badRequestf("workload %q has no variants", w.Kind)
		}
	case w.Variant == "":
		w.Variant = k.variants[0].name
	case k.variant(w.Variant) == nil:
		names := make([]string, len(k.variants))
		for i, v := range k.variants {
			names[i] = v.name
		}
		return badRequestf("unknown %s variant %q (%s)", w.Kind, w.Variant, strings.Join(names, ", "))
	}
	if k.fields&fieldBytes != 0 {
		if w.Bytes == 0 {
			w.Bytes = defaultBytes
		}
		if w.Bytes < 0 {
			return badRequestf("bytes must be >= 0, got %d", w.Bytes)
		}
		// Every data collective moves fewer than 2·P² blocks in all, so its
		// largest message and its whole-run traffic fit in int64.
		if limit := math.MaxInt64 / (2 * procs * procs); w.Bytes > limit {
			return badRequestf("%s at P=%d: bytes must be <= %d, got %d (the traffic would overflow int64)", w.Kind, procs, limit, w.Bytes)
		}
		if k.fields&fieldRoot == 0 && w.Root != 0 {
			return badRequestf("workload %q has no root", w.Kind)
		}
	}
	if k.fields&fieldRoot != 0 && (w.Root < 0 || w.Root >= procs) {
		return badRequestf("root %d out of range [0,%d)", w.Root, procs)
	}
	if k.fields&fieldSupersteps != 0 {
		if w.Supersteps == 0 {
			w.Supersteps = defaultSupersteps
		}
		if w.Supersteps < 1 {
			return badRequestf("supersteps must be >= 1, got %d", w.Supersteps)
		}
		if w.ComputeSeconds == 0 {
			w.ComputeSeconds = defaultComputeSeconds
		}
		if w.ComputeSeconds < 0 {
			return badRequestf("computeSeconds must be >= 0, got %g", w.ComputeSeconds)
		}
		if procs < 2 {
			return badRequestf("the sync workload needs at least 2 ranks")
		}
		if _, ok := syncTraffic(procs, w.Supersteps); !ok {
			return badRequestf("sync at P=%d over %d supersteps: the traffic would overflow int64", procs, w.Supersteps)
		}
	}
	if k.fields&fieldGrid != 0 {
		if w.Grid == 0 {
			w.Grid = defaultGrid
		}
		if w.Iterations == 0 {
			w.Iterations = defaultIterations
		}
		if w.Grid < 3 {
			return badRequestf("grid must be >= 3, got %d", w.Grid)
		}
		if w.Iterations < 1 {
			return badRequestf("iterations must be >= 1, got %d", w.Iterations)
		}
		if limit := stencilGridLimit(procs, w.Iterations); w.Grid > limit {
			return badRequestf("stencil at P=%d over %d iterations: grid must be <= %d, got %d (the traffic or the cell count would overflow int64)", procs, w.Iterations, limit, w.Grid)
		}
		if _, err := stencil.Decompose(w.Grid, procs); err != nil {
			return badRequestf("%v", err)
		}
	}
	if k.fields&fieldRanks != 0 {
		if len(w.Ranks) == 0 {
			return badRequestf("program workload needs ranks")
		}
		if len(w.Ranks) != procs {
			return badRequestf("program has %d rank streams, point has procs=%d", len(w.Ranks), procs)
		}
		return validateOps(w.Ranks)
	}
	return nil
}

// stencilGridLimit is the largest grid whose stencil counts fit in int64:
// its cells, grid², and its traffic over the iterations — each iteration a
// rank puts at most four halos of grid values, each 8·grid+24 bytes on the
// wire, so iterations·4·P·(8·grid+24) bytes. Below 3 when no grid fits. The
// traffic bound is divided down step by step, so no product overflows.
func stencilGridLimit(procs, iterations int) int {
	q := math.MaxInt64 / (4 * procs) / iterations
	return min((q-24)/8, maxGrid)
}

// maxGrid is the largest grid whose cell count, grid², fits in int64.
const maxGrid = 3037000499

// validateOps checks a program workload's op-streams: known ops, peers in
// range, request slots produced in isend/irecv order and consumed by "wait"
// exactly once, and message sizes whose sum fits in int64.
func validateOps(ranks [][]OpSpec) error {
	p := len(ranks)
	traffic := 0 // the bytes of every isend and post so far, kept inside int64
	for rank, ops := range ranks {
		next := 0
		waited := map[int]bool{}
		for i, op := range ops {
			switch op.Op {
			case "compute":
				if op.Seconds < 0 {
					return badRequestf("rank %d op %d: compute seconds must be >= 0", rank, i)
				}
			case "isend", "post":
				if op.To < 0 || op.To >= p {
					return badRequestf("rank %d op %d: to=%d out of range [0,%d)", rank, i, op.To, p)
				}
				if op.Bytes < 0 {
					return badRequestf("rank %d op %d: bytes must be >= 0", rank, i)
				}
				if op.Bytes > math.MaxInt64-traffic {
					return badRequestf("rank %d op %d: the program's traffic would overflow int64", rank, i)
				}
				traffic += op.Bytes
				if op.Op == "isend" {
					next++
				}
			case "irecv":
				if op.From < 0 || op.From >= p {
					return badRequestf("rank %d op %d: from=%d out of range [0,%d)", rank, i, op.From, p)
				}
				next++
			case "wait":
				if op.Req < 0 || op.Req >= next {
					return badRequestf("rank %d op %d: wait names request slot %d, only %d allocated so far", rank, i, op.Req, next)
				}
				if waited[op.Req] {
					return badRequestf("rank %d op %d: request slot %d waited twice", rank, i, op.Req)
				}
				waited[op.Req] = true
			default:
				return badRequestf("rank %d op %d: unknown op %q (compute, isend, irecv, post, wait)", rank, i, op.Op)
			}
		}
		if len(waited) != next {
			return badRequestf("rank %d leaves %d request slots unwaited", rank, next-len(waited))
		}
	}
	return nil
}

// buildProgram compiles a validated program workload into a sim.Program.
func buildProgram(ranks [][]OpSpec) *sim.Program {
	pr := sim.NewProgram(len(ranks))
	for rank, ops := range ranks {
		b := pr.Rank(rank)
		for _, op := range ops {
			switch op.Op {
			case "compute":
				b.Compute(op.Seconds)
			case "isend":
				b.Isend(op.To, op.Tag, op.Bytes)
			case "post":
				b.Post(op.To, op.Tag, op.Bytes)
			case "irecv":
				b.Irecv(op.From, op.Tag)
			case "wait":
				b.Wait(sim.Req(op.Req))
			}
		}
	}
	return pr
}

// synchronizer returns the synchronizer ending a static row's supersteps: the
// default dissemination exchange, or for a variant with a schedule (the sync
// workload's "schedule") that cached schedule wrapped as one.
func (s *Server) synchronizer(k *kind, w *WorkloadSpec, procs int) (bsp.Synchronizer, error) {
	if k.variant(w.Variant).gen == nil {
		return bsp.DefaultSynchronizer(), nil
	}
	sch, err := s.schedule(w, procs)
	if err != nil {
		return nil, err
	}
	sync, err := bsp.NewScheduleSynchronizer(sch)
	if err != nil {
		return nil, fmt.Errorf("server: %s:%s P=%d: %v", w.Kind, w.Variant, procs, err)
	}
	return sync, nil
}

// schedule returns a point's verified schedule from the server's one schedule
// cache, which every route reads: the variant generator's pattern — wrapping
// a streamed schedule for the data collectives and the dissemination exchange
// (a total exchange at P=1024 is 16 KB where its stage matrices would be
// 9.7 GB), O(P·stages) edge lists for the tree and linear barriers.
// Verification reads stage structure only, so the cache also holds a marker
// per verified (kind, variant, procs, root). Cached values are immutable and
// shared between runs.
func (s *Server) schedule(w *WorkloadSpec, procs int) (sched.Schedule, error) {
	structure := fmt.Sprintf("%s:%s/p%d/root%d", w.Kind, w.Variant, procs, w.Root)
	key := fmt.Sprintf("schedule/%s/b%d", structure, w.Bytes)
	if sch, ok := s.schedules.Get(key); ok {
		return sch.(sched.Schedule), nil
	}
	v := kindOf(w.Kind).variant(w.Variant)
	if v == nil || v.gen == nil {
		return nil, fmt.Errorf("server: no schedule for workload %s:%s", w.Kind, w.Variant)
	}
	pat, err := v.gen(procs, w.Root, w.Bytes)
	if err != nil {
		return nil, badRequestf("%s:%s with P=%d: %v", w.Kind, w.Variant, procs, err)
	}
	if _, ok := s.schedules.Get("verified/" + structure); !ok {
		if err := pat.Verify(); err != nil {
			return nil, fmt.Errorf("server: %s:%s P=%d failed verification: %v", w.Kind, w.Variant, procs, err)
		}
		s.schedules.Put("verified/"+structure, true)
	}
	s.schedules.Put(key, pat)
	return pat, nil
}
