package bsp

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"hbsp/internal/adapt"
	"hbsp/internal/barrier"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// Synchronizer drives the total exchange of per-pair message counts that ends
// a superstep (Section 6.4). The default is the hand-rolled dissemination
// exchange; NewScheduleSynchronizer executes any verified collective schedule
// instead, which is how model-selected hybrid patterns from internal/adapt
// reach the runtime.
type Synchronizer interface {
	// Name identifies the synchronizer for reporting.
	Name() string
	// ExchangeCounts returns the full P×P one-sided message-count map,
	// indexed [source][destination], as established on the calling process.
	ExchangeCounts(c *Ctx) ([][]int, error)
}

// directExchanger is the optional capability a synchronizer implements to
// route its count exchange through the goroutine-free discrete-event
// evaluator: the returned schedule is the exchange's exact op-stream — the
// same stage walk the synchronizer's ExchangeCounts performs concurrently,
// with every payload size resolved up front (the count-row snapshot a rank
// sends at stage s is knowledge-determined, never data-determined). Sync
// evaluates it at the run's gate; synchronizers without the capability (or
// runs under WithConcurrentEngine) keep the concurrent walk.
type directExchanger interface {
	exchangeSchedule(p int) (sched.Schedule, error)
}

// disseminationSync is the default synchronizer: the ⌈log2 P⌉-stage
// dissemination exchange with doubling payloads of Section 6.5. The exchange
// of each process count is one immutable streamed circulant — O(log P) state
// at any P — cached so that every run and every superstep hands the evaluator
// the same value (its partition cache is keyed by it).
type disseminationSync struct {
	mu  sync.Mutex
	byP map[int]*sched.Circulant
}

func (*disseminationSync) Name() string                           { return "dissemination" }
func (*disseminationSync) ExchangeCounts(c *Ctx) ([][]int, error) { return c.exchangeCounts() }

// exchangeSchedule returns the dissemination exchange for p ranks: stage
// offsets 2^s, payload sizes the header plus the min(2^s, p) count rows the
// sender holds entering the stage.
func (d *disseminationSync) exchangeSchedule(p int) (sched.Schedule, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if s, ok := d.byP[p]; ok {
		return s, nil
	}
	var offs, sizes []int
	known := 1 // rows held entering the stage: min(2^s, p)
	for dist := 1; dist < p; dist *= 2 {
		offs = append(offs, dist)
		sizes = append(sizes, headerBytes+known*p*countEntryBytes)
		if known *= 2; known > p {
			known = p
		}
	}
	s, err := sched.NewCirculant(p, offs, sizes)
	if err != nil {
		return nil, err
	}
	if d.byP == nil {
		d.byP = map[int]*sched.Circulant{}
	}
	d.byP[p] = s
	return s, nil
}

// ExchangeSchedule returns the default dissemination count-exchange schedule
// for p ranks — the exact op-stream Sync evaluates per superstep, with every
// payload size resolved up front. Exported so direct RunSchedule sweeps (and
// the benchmark's sched.collapsed_sync_ms at P=2^20) can evaluate the superstep
// count exchange without spawning a concurrent run.
func ExchangeSchedule(p int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("bsp: count exchange with p=%d", p)
	}
	return defaultSync.exchangeSchedule(p)
}

// defaultSync is the shared default synchronizer instance; sharing it lets
// every run reuse the cached exchange schedules.
var defaultSync = &disseminationSync{}

// DefaultSynchronizer returns the dissemination synchronizer the runtime uses
// when none is configured.
func DefaultSynchronizer() Synchronizer { return defaultSync }

// scheduleSync executes an arbitrary verified schedule: at every stage each
// process receives from its in-edges and forwards everything it knows along
// its out-edges, so after the last stage the count map is complete on every
// process whenever the schedule passes the all-pairs knowledge recursion.
// It speaks the same wire protocol as Ctx.exchangeCounts in sync.go
// (tagCountBase+stage tags, map[int][]int payloads, headerBytes+rows*P*4
// sizing) — change them together.
type scheduleSync struct {
	pat *barrier.Pattern

	// once builds the evaluator schedule of the exchange: the pattern's
	// adjacency with every out-edge sized at the count-row snapshot the
	// sender holds entering the stage (the knowledge recursion's counts,
	// barrier.Pattern.EachStageKnowing).
	once  sync.Once
	sched sched.Schedule
}

// NewScheduleSynchronizer wraps a collective schedule as a count-exchange
// synchronizer. The pattern must pass the all-pairs knowledge recursion
// (barrier/allgather-style semantics): rooted broadcast or reduce schedules
// cannot deliver the full count map and are rejected.
func NewScheduleSynchronizer(pat *barrier.Pattern) (Synchronizer, error) {
	if pat == nil {
		return nil, errors.New("bsp: nil schedule")
	}
	switch pat.Semantics {
	case barrier.SemBroadcast, barrier.SemReduce:
		return nil, fmt.Errorf("bsp: %s schedule cannot implement the count total exchange", pat.Semantics)
	}
	if err := pat.Verify(); err != nil {
		return nil, fmt.Errorf("bsp: schedule rejected: %w", err)
	}
	return &scheduleSync{pat: pat}, nil
}

func (s *scheduleSync) Name() string { return s.pat.Name }

func (s *scheduleSync) exchangeSchedule(p int) (sched.Schedule, error) {
	if s.pat.Procs != p {
		return nil, fmt.Errorf("bsp: schedule for %d processes on a %d-process run", s.pat.Procs, p)
	}
	s.once.Do(func() {
		stages := make([]sched.Stage, s.pat.NumStages())
		s.pat.EachStageKnowing(func(sg int, st barrier.StageAdj, known *sched.ReachSet) {
			outBytes := make([][]int, p)
			for i, outs := range st.Out {
				if len(outs) == 0 {
					continue
				}
				outBytes[i] = make([]int, len(outs))
				size := headerBytes + known.Count(i)*p*countEntryBytes
				for k := range outBytes[i] {
					outBytes[i][k] = size
				}
			}
			stages[sg] = sched.Stage{Out: st.Out, In: st.In, OutBytes: outBytes}
		})
		// A circulant pattern has rank-invariant knowledge counts, so the
		// count-sized payloads stay uniform per stage and the pattern's
		// symmetry hint carries over to the exchange schedule.
		s.sched = &sched.StaticStages{Procs: p, Stages: stages, Sym: s.pat.Sym}
	})
	return s.sched, nil
}

func (s *scheduleSync) ExchangeCounts(c *Ctx) ([][]int, error) {
	p := c.NProcs()
	rank := c.Pid()
	if s.pat.Procs != p {
		return nil, fmt.Errorf("bsp: schedule for %d processes on a %d-process run", s.pat.Procs, p)
	}
	known := map[int][]int{rank: append([]int(nil), c.outCounts...)}
	traced := c.proc.Tracing()
	if traced {
		defer c.proc.TraceStage(-1)
	}
	for stage, st := range s.pat.Adjacency() {
		if traced {
			c.proc.TraceStage(stage)
		}
		ins := st.In[rank]
		outs := st.Out[rank]
		if len(ins) == 0 && len(outs) == 0 {
			continue
		}
		tag := tagCountBase + stage

		recvs := make([]*simnet.Request, len(ins))
		for k, src := range ins {
			recvs[k] = c.proc.Irecv(src, tag)
		}
		// Snapshot of everything known so far travels along every out-edge.
		var sends []*simnet.Request
		if len(outs) > 0 {
			payload := make(map[int][]int, len(known))
			for r, row := range known {
				payload[r] = row
			}
			size := headerBytes + len(payload)*p*countEntryBytes
			for _, dst := range outs {
				sends = append(sends, c.proc.Isend(dst, tag, size, payload))
			}
		}
		for k, rreq := range recvs {
			in := c.proc.Wait(rreq)
			got, ok := in.(map[int][]int)
			if !ok {
				return nil, fmt.Errorf("bsp: process %d received a malformed count map from %d", rank, ins[k])
			}
			for r, row := range got {
				if _, seen := known[r]; !seen {
					known[r] = row
				}
			}
		}
		for _, sreq := range sends {
			c.proc.Wait(sreq)
		}
	}

	counts := make([][]int, p)
	for r := 0; r < p; r++ {
		row, ok := known[r]
		if !ok || len(row) != p {
			return nil, fmt.Errorf("bsp: process %d is missing the count row of process %d after synchronization", rank, r)
		}
		counts[r] = row
	}
	return counts, nil
}

// NewAdaptedSynchronizer runs the model-driven construction of Chapter 7 on
// the supplied parameter matrices, costs every candidate with the count
// payload it would carry (WithCountPayload), and wraps the winner as a
// runtime synchronizer. It returns the adaptation result so callers can
// report the ranking.
func NewAdaptedSynchronizer(params barrier.Params, opts barrier.CostOptions) (Synchronizer, *adapt.Result, error) {
	res, err := adapt.GreedySync(params, opts, countEntryBytes)
	if err != nil {
		return nil, nil, err
	}
	sync, err := NewScheduleSynchronizer(res.Best.Pattern)
	if err != nil {
		return nil, nil, err
	}
	return sync, res, nil
}

// RunWith executes the SPMD program with a specific synchronizer ending every
// superstep; Run is RunWith with the default dissemination synchronizer.
func RunWith(m Machine, sync Synchronizer, program Program, opts ...simnet.Options) (*simnet.Result, error) {
	cfg := RunConfig{Sync: sync}
	if len(opts) > 0 {
		cfg.Options = &opts[0]
	}
	return RunContext(context.Background(), m, cfg, program)
}
