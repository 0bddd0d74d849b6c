// Package trace is the event-recording core of the observability subsystem:
// a low-overhead recorder the virtual-time simulator writes into from its hot
// paths (message injection, receive completion, compute intervals, superstep
// and collective-stage boundaries), and the merged, analyzable Trace it
// produces after a run.
//
// The recorder is built for the simulator's concurrency model: every rank is
// driven by exactly one goroutine, so events are appended to per-rank
// append-only lanes without any locking or atomics on the hot path, staged a
// few events at a time in blocks that stay in cache (see Lane). Lanes are
// stored columnar (struct of arrays): one parallel array per event field, so
// an analysis pass touching two fields streams two dense arrays instead of
// striding through 64-byte structs, and the spill format can encode each
// column with the encoding that fits it. After the run the lanes are read in
// deterministic order — per-lane order is the rank's own deterministic clock
// order, and every merged view is a pure function of the event times — so
// two runs with the same machine seed produce byte-identical traces
// regardless of goroutine scheduling.
//
// Large runs do not have to hold their lanes in RAM: SpillTo arranges for
// full column chunks to be encoded on a goroutine of the run's own and
// streamed to a writer (see spill.go for the format), bounding resident
// recorder memory at about 2 × Procs × ChunkEvents events; the analyses then
// run directly off the spill file through the same Source interface the
// in-RAM Trace implements. They read a spill the way it was written, by the
// chunk: each pass names the columns it needs, the reader decodes those and
// steps over the rest — the whole-run passes a few chunks ahead of
// themselves on a second goroutine — and the critical-path walk decodes only
// the chunks it lands in, so analysing a spilled run holds a chunk per open
// lane stream, never a lane. A spill file is outside input: OpenSpill checks
// the header, summary and index against the file, the chunk reader checks
// every chunk it decodes against them, and a file that fails either is
// reported with ErrCorruptSpill, not a panic.
//
// A nil *Recorder (the exported Disabled) is valid and records nothing; the
// simulator's per-event cost in that mode is a single pointer test against a
// field it already holds in cache (benchmarked by BenchmarkTraceOverhead).
package trace

import (
	"errors"
	"io"
	"math"
	"slices"
	"sort"
	"sync"
	"unsafe"
)

// Kind classifies a recorded event.
type Kind uint8

const (
	// KindCompute is a local computation interval on the rank's clock.
	KindCompute Kind = iota
	// KindSend is the sender-side injection of one message: the interval is
	// the per-request software overhead on the sender's clock, Arrival is the
	// virtual time the message becomes available at Peer.
	KindSend
	// KindRecvWait is an interval the rank spent blocked completing a
	// receive. Gated tells whether the message's arrival ended the wait (the
	// sender gated this rank) or a local port did; SendSeq links to the
	// matching KindSend event in Peer's lane and SendEnd carries that send's
	// injection end time, so analyses never have to chase the link.
	KindRecvWait
	// KindSendWait is an interval the rank spent blocked completing a send
	// (port occupancy and, in ack mode, the returning acknowledgement).
	KindSendWait
	// KindAdvance is an explicit clock alignment (Proc.AdvanceTo).
	KindAdvance
	// KindSuperstep is a zero-length superstep-boundary mark: Step is the
	// index of the superstep just completed. BSP ranks emit one per Sync, MPI
	// ranks one per Barrier.
	KindSuperstep
	// KindStage is a zero-length collective-schedule stage mark emitted by
	// the pattern executor; Stage is the stage about to run.
	KindStage
	// KindFault is a fail-stop recovery interval injected by a fault plan:
	// the rank's clock crossed its fail time and [T0, T1] is the restart
	// penalty plus the recompute time back to the last checkpoint. Both
	// engines record it at the clock advance that crossed the fail time.
	KindFault
	numKinds
)

// String returns the compact name used by the exporters.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindSend:
		return "send"
	case KindRecvWait:
		return "recv.wait"
	case KindSendWait:
		return "send.wait"
	case KindAdvance:
		return "advance"
	case KindSuperstep:
		return "superstep"
	case KindStage:
		return "stage"
	case KindFault:
		return "fault"
	}
	return "unknown"
}

// flagGated is the Cols.Flags bit recording Event.Gated.
const flagGated uint8 = 1

// Event is one recorded observation. All times are virtual seconds. The zero
// Step is superstep 0; Stage is -1 outside collective-schedule execution;
// SendSeq is -1 when the event is not a linked receive.
type Event struct {
	Kind Kind
	// Gated reports, for KindRecvWait, that the wait ended with the message's
	// arrival (the sender was the gating dependency) rather than with a local
	// extraction-port slot.
	Gated bool
	// Rank is the recording rank.
	Rank int32
	// Peer is the remote rank of a communication event, -1 otherwise.
	Peer int32
	// Tag is the message tag of a communication event.
	Tag int32
	// Size is the payload size in bytes of a communication event, saturated
	// at 2 GiB − 1 (MaxInt32): for runs with larger messages the byte totals
	// the analyses derive from it are lower bounds. The run's traffic
	// counters (Summary.Bytes) count exact sizes.
	Size int32
	// Step is the superstep the event belongs to (0 before the first
	// boundary; KindSuperstep marks carry the completed step).
	Step int32
	// Stage is the collective-schedule stage the event belongs to, -1 outside
	// schedule execution.
	Stage int32
	// SendSeq is, for KindRecvWait, the index in Peer's lane of the KindSend
	// event that produced the received message; -1 otherwise.
	SendSeq int32
	// T0 and T1 bound the event on the recording rank's clock (T0 == T1 for
	// boundary marks).
	T0, T1 float64
	// Arrival is the matched message's arrival time at the receiver
	// (KindSend and KindRecvWait events).
	Arrival float64
	// SendEnd is, for KindRecvWait, the injection end time (T1) of the
	// KindSend event SendSeq points at, carried on the message itself so
	// consumers of a single lane never dereference a peer lane; 0 otherwise.
	SendEnd float64
}

// Duration returns T1 - T0.
func (e *Event) Duration() float64 { return e.T1 - e.T0 }

// Meta labels a recorded run with everything needed to reproduce it.
type Meta struct {
	// Procs is the rank count of the run.
	Procs int
	// Seed is the machine's run seed when the machine exposes one
	// (cluster.Machine does, including through WithRunSeed copies);
	// SeedKnown tells whether it did.
	Seed      int64
	SeedKnown bool
	// Machine is the machine's self-description (fmt.Stringer), if any.
	Machine string
	// Label is a free-form workload name supplied by the harness.
	Label string
	// AckSends records the simulator option the run used.
	AckSends bool
	// Faults describes the run's fault plan, one deterministic line per
	// injected rule (fault.Runtime.Describe); empty on fault-free runs. The
	// exporters stamp it into their metadata so a degraded timeline names the
	// scenario that produced it.
	Faults []string
}

// Summary carries the run-level result data beside the lanes: per-rank final
// times, the makespan, traffic totals, the superstep bucket count and the
// run error (as text, so the spill format can round-trip it).
type Summary struct {
	// Times are the per-rank final virtual times (nil when the run failed
	// before producing a result).
	Times []float64
	// MakeSpan is the run's virtual makespan.
	MakeSpan float64
	// Messages and Bytes total the delivered traffic.
	Messages int64
	Bytes    int64
	// Steps is the number of superstep buckets the trace covers: one more
	// than the highest Step stamped on any event.
	Steps int
	// ErrMsg is the run error's text, "" on clean runs.
	ErrMsg string
}

// Cols is the columnar (struct-of-arrays) storage of a run of events: one
// parallel array per Event field, indexed by the event's position in its
// lane. Flags packs the boolean fields (flagGated).
type Cols struct {
	Kind    []Kind
	Flags   []uint8
	Peer    []int32
	Tag     []int32
	Size    []int32
	Step    []int32
	Stage   []int32
	SendSeq []int32
	T0      []float64
	T1      []float64
	Arrival []float64
	SendEnd []float64
}

// Len returns the number of events stored.
func (c *Cols) Len() int { return len(c.Kind) }

// extend lengthens every column by n events, growing as append does, and
// returns the index of the first.
func (c *Cols) extend(n int) int {
	i := c.Len()
	c.Kind = slices.Grow(c.Kind, n)[:i+n]
	c.Flags = slices.Grow(c.Flags, n)[:i+n]
	c.Peer = slices.Grow(c.Peer, n)[:i+n]
	c.Tag = slices.Grow(c.Tag, n)[:i+n]
	c.Size = slices.Grow(c.Size, n)[:i+n]
	c.Step = slices.Grow(c.Step, n)[:i+n]
	c.Stage = slices.Grow(c.Stage, n)[:i+n]
	c.SendSeq = slices.Grow(c.SendSeq, n)[:i+n]
	c.T0 = slices.Grow(c.T0, n)[:i+n]
	c.T1 = slices.Grow(c.T1, n)[:i+n]
	c.Arrival = slices.Grow(c.Arrival, n)[:i+n]
	c.SendEnd = slices.Grow(c.SendEnd, n)[:i+n]
	return i
}

// appendEvents copies a staged block onto the columns one column at a time
// (7 % faster on BenchmarkSpillRecord than one pass storing all twelve).
func (c *Cols) appendEvents(evs []Event) {
	i := c.extend(len(evs))
	fill(c.Kind[i:], evs, func(e *Event) Kind { return e.Kind })
	fill(c.Flags[i:], evs, func(e *Event) uint8 {
		if e.Gated {
			return flagGated
		}
		return 0
	})
	fill(c.Peer[i:], evs, func(e *Event) int32 { return e.Peer })
	fill(c.Tag[i:], evs, func(e *Event) int32 { return e.Tag })
	fill(c.Size[i:], evs, func(e *Event) int32 { return e.Size })
	fill(c.Step[i:], evs, func(e *Event) int32 { return e.Step })
	fill(c.Stage[i:], evs, func(e *Event) int32 { return e.Stage })
	fill(c.SendSeq[i:], evs, func(e *Event) int32 { return e.SendSeq })
	fill(c.T0[i:], evs, func(e *Event) float64 { return e.T0 })
	fill(c.T1[i:], evs, func(e *Event) float64 { return e.T1 })
	fill(c.Arrival[i:], evs, func(e *Event) float64 { return e.Arrival })
	fill(c.SendEnd[i:], evs, func(e *Event) float64 { return e.SendEnd })
}

// fill stores one field of every staged event into a column.
func fill[T any](col []T, evs []Event, field func(*Event) T) {
	for k := range evs {
		col[k] = field(&evs[k])
	}
}

// Event materializes event i, stamping the given lane rank.
func (c *Cols) Event(i int, rank int32) Event {
	return Event{
		Kind:    c.Kind[i],
		Gated:   c.Flags[i]&flagGated != 0,
		Rank:    rank,
		Peer:    c.Peer[i],
		Tag:     c.Tag[i],
		Size:    c.Size[i],
		Step:    c.Step[i],
		Stage:   c.Stage[i],
		SendSeq: c.SendSeq[i],
		T0:      c.T0[i],
		T1:      c.T1[i],
		Arrival: c.Arrival[i],
		SendEnd: c.SendEnd[i],
	}
}

// truncate empties every column, keeping the backing arrays for reuse.
func (c *Cols) truncate() { *c = c.slice(0, 0) }

// grow pre-sizes empty columns for n events.
func (c *Cols) grow(n int) {
	c.extend(n)
	c.truncate()
}

// slice returns a view of events [i, j) as a Cols header sharing c's
// arrays.
func (c *Cols) slice(i, j int) Cols {
	return Cols{
		Kind:    c.Kind[i:j],
		Flags:   c.Flags[i:j],
		Peer:    c.Peer[i:j],
		Tag:     c.Tag[i:j],
		Size:    c.Size[i:j],
		Step:    c.Step[i:j],
		Stage:   c.Stage[i:j],
		SendSeq: c.SendSeq[i:j],
		T0:      c.T0[i:j],
		T1:      c.T1[i:j],
		Arrival: c.Arrival[i:j],
		SendEnd: c.SendEnd[i:j],
	}
}

// appendCols appends src's events onto c (WriteSpill's re-chunking to the
// canonical size).
func (c *Cols) appendCols(src *Cols) {
	i := c.extend(src.Len())
	copy(c.Kind[i:], src.Kind)
	copy(c.Flags[i:], src.Flags)
	copy(c.Peer[i:], src.Peer)
	copy(c.Tag[i:], src.Tag)
	copy(c.Size[i:], src.Size)
	copy(c.Step[i:], src.Step)
	copy(c.Stage[i:], src.Stage)
	copy(c.SendSeq[i:], src.SendSeq)
	copy(c.T0[i:], src.T0)
	copy(c.T1[i:], src.T1)
	copy(c.Arrival[i:], src.Arrival)
	copy(c.SendEnd[i:], src.SendEnd)
}

// Lane is one rank's append-only event stream, stored columnar. A lane is
// written by exactly one goroutine (the rank's) and must not be read until
// the run has ended. Append stores the event whole into a staging block of
// stageDepth events and drains a full block onto the columns one column at
// a time: a stage sweep visits every lane in turn, and twelve stores per
// event scattered over P lanes' columns miss the cache where the blocks do
// not. On spill-backed runs a block is cut at the chunk boundary, so a chunk
// is handed off at the Append that fills it, as without staging.
type Lane struct {
	c     Cols
	stage []Event    // the staging block, nil at depth 1
	lim   int32      // staged events that drain: the depth, cut at the chunk boundary
	rank  int32      // the recording rank
	chunk int32      // spill chunk size in events, MaxInt32 when not spilling
	base  int32      // events already flushed to the spill sink
	sink  *spillSink // shared chunk writer, nil when not spilling
	// Pad the struct to a multiple of 64 bytes so neighbouring lanes in the
	// recorder's lane array do not false-share a cache line while their
	// ranks append concurrently.
	_ [48]byte
}

// Append records one event.
func (l *Lane) Append(ev Event) {
	if cap(l.stage) == 0 { // depth 1: the event is a block of its own
		l.drain([]Event{ev})
		return
	}
	l.stage = append(l.stage, ev)
	if int32(len(l.stage)) == l.lim {
		l.drain(l.stage)
	}
}

// Len returns the number of events recorded so far (including staged and
// spilled ones); the simulator uses it to link a message to the send event
// about to be appended.
func (l *Lane) Len() int { return int(l.base) + l.c.Len() + len(l.stage) }

// drain copies a block of staged events onto the columns, flushes a full
// chunk to the spill sink, and re-arms the staging block.
func (l *Lane) drain(evs []Event) {
	l.c.appendEvents(evs)
	if int32(l.c.Len()) == l.chunk {
		l.flush()
	}
	l.stage = l.stage[:0]
	l.lim = min(int32(cap(l.stage)), l.chunk-int32(l.c.Len()))
}

// flush hands the lane's resident columns to the spill sink's encoder and
// takes back empty ones, chunk-sized unless this is the run's last flush.
func (l *Lane) flush() {
	if l.c.Len() == 0 {
		return
	}
	l.base += int32(l.c.Len())
	l.c = l.sink.handOff(l.rank, l.c, l.c.Len() == int(l.chunk))
}

// stageBudget bounds a recorder's staging blocks, whatever P: 1 MiB, half of
// a core's L2 on the benchmark host. stageDepth spends it on procs lanes: 16
// events up to P = 1,024, fewer beyond, 1 (no block) from P = 16,384.
const stageBudget = 1 << 20

func stageDepth(procs int) int {
	return min(16, stageBudget/(max(procs, 1)*int(unsafe.Sizeof(Event{}))))
}

// Disabled is the nil recorder: attaching it to a run records nothing, and
// the simulator's per-event cost is a single nil test.
var Disabled *Recorder

// ErrNoRun is returned by Trace when the recorder holds no completed run.
var ErrNoRun = errors.New("trace: recorder holds no completed run (attach it to a run first)")

// ErrUnclean is returned by Trace when the recorded run was torn down with
// rank goroutines possibly still running (a wall-clock deadline with an
// uninterruptible rank); such lanes cannot be read safely.
var ErrUnclean = errors.New("trace: run was torn down before every rank stopped; trace discarded")

// ErrSpilled is returned by Trace when the recorded run streamed its lanes
// to a spill sink (SpillTo): the events live in the spill file, not in RAM —
// open it with OpenSpillFile and analyze the returned Source.
var ErrSpilled = errors.New("trace: run was spilled to disk; open the spill file instead of Trace()")

// Recorder accumulates the events of one simulation run. Create one with
// NewRecorder, attach it via the run options (hbsp.WithRecorder or
// sim.Options.Recorder), and read the result with Trace after the run
// returns. A Recorder records one run at a time — beginning a new run
// discards the previous one — and must not be shared by concurrent runs;
// give each run of a parallel sweep its own recorder.
type Recorder struct {
	mu       sync.Mutex
	recorded bool
	unclean  bool
	exported bool
	label    string
	meta     Meta
	lanes    []Lane
	prevLens []int
	times    []float64
	makespan float64
	messages int64
	bytes    int64
	runErr   error

	// Spill state: armedW/armedOpts hold a SpillTo target until the next
	// BeginRun consumes it (one run per SpillTo call); sink is the live
	// chunk writer of the current run; spilled marks the sealed run as
	// spill-backed (Trace returns ErrSpilled); spillErr is the first write
	// or finalization error.
	armedW    io.Writer
	armedOpts SpillOptions
	sink      *spillSink
	spilled   bool
	spillErr  error
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// SetLabel names the workload in the metadata of subsequently recorded runs;
// exporters print it. Safe on the nil recorder.
func (r *Recorder) SetLabel(label string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.label = label
	r.mu.Unlock()
}

// Enabled reports whether the recorder records anything; it is false exactly
// for the nil recorder (Disabled).
func (r *Recorder) Enabled() bool { return r != nil }

// SpillTo arranges for the NEXT recorded run to stream its lanes to w in the
// binary spill format instead of holding them in RAM: the Append that fills
// a lane's ChunkEvents-sized columns hands them to the run's encoder
// goroutine and takes back emptied ones, so recorder memory is Procs ×
// ChunkEvents events in the lanes, at most as many again (and at most 1 Mi)
// queued for the encoder, and 1 MiB of staging blocks. EndRun joins the
// goroutine and writes the summary, the chunk index and the footer; check
// SpillErr afterwards and open the result with OpenSpillFile/OpenSpill.
// After a spilled run, Trace returns ErrSpilled. The arrangement is
// one-shot: the run after the spilled one records in RAM again unless
// SpillTo is called again.
func (r *Recorder) SpillTo(w io.Writer, opts SpillOptions) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.armedW = w
	r.armedOpts = opts
	r.spillErr = nil
	r.mu.Unlock()
}

// SpillErr returns the first error of the current spill (write failure, or
// ErrUnclean when the run's teardown left lanes unreadable), nil on success.
func (r *Recorder) SpillErr() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spillErr
}

// SpillStats reports what the last spilled run wrote: encoded chunks, events
// and the file's size in bytes — header, chunk records and, once EndRun has
// sealed it, summary, index and footer (0s when the run did not spill).
func (r *Recorder) SpillStats() (chunks int, events, bytes int64) {
	if r == nil {
		return 0, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.sink == nil {
		return 0, 0, 0
	}
	return r.sink.stats()
}

// BeginRun resets the recorder for a run with the given metadata and sizes
// one lane per rank. The simulator calls it; user code does not.
//
// Lane storage is pooled: when the previous run's lanes were never exported
// through Trace (the benchmark and sweep pattern — run, read the Result,
// run again), their column blocks are truncated and reused, so a recorder in
// steady state appends into already-sized lanes and allocates nothing. Once
// Trace has been called, the lanes are shared with the returned view and the
// next run allocates fresh ones — pre-sized from the previous run's per-rank
// event counts, so even the exporting pattern pays one right-sized
// allocation series per lane instead of a growth series. Spilled lanes are
// sized to the chunk.
func (r *Recorder) BeginRun(meta Meta) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recorded = false
	r.unclean = false
	r.runErr = nil
	if meta.Label == "" {
		meta.Label = r.label
	}
	r.meta = meta
	r.times = nil
	r.makespan = 0
	r.messages, r.bytes = 0, 0

	r.sink = nil
	r.spilled = false
	if r.armedW != nil {
		r.sink, r.spillErr = newSpillSink(r.armedW, r.meta)
		r.spilled = true
		r.armedW = nil
	}
	chunk := int32(math.MaxInt32)
	if r.sink != nil {
		chunk = int32(r.armedOpts.chunkFor(meta.Procs))
		r.sink.startEncoder(meta.Procs, int(chunk))
	}

	if len(r.lanes) == meta.Procs {
		// Remember the finished run's event counts: they are the size
		// estimate the next allocation (if any) is seeded with.
		if r.prevLens == nil || len(r.prevLens) != meta.Procs {
			r.prevLens = make([]int, meta.Procs)
		}
		for i := range r.lanes {
			r.prevLens[i] = r.lanes[i].Len()
		}
	}
	reuse := !r.exported && len(r.lanes) == meta.Procs
	if !reuse {
		r.exported = false
		r.lanes = make([]Lane, meta.Procs)
		if depth := stageDepth(meta.Procs); depth > 1 {
			blocks := make([]Event, depth*meta.Procs)
			for i := range r.lanes {
				r.lanes[i].stage = blocks[i*depth : i*depth : (i+1)*depth]
			}
		}
	}
	for i := range r.lanes {
		l := &r.lanes[i]
		l.c.truncate()
		l.rank = int32(i)
		l.base = 0
		l.sink, l.chunk = r.sink, chunk
		switch {
		case r.sink != nil: // a spilled lane fills to the chunk and is flushed in place
			l.c.grow(int(chunk))
		case !reuse && len(r.prevLens) == meta.Procs:
			l.c.grow(r.prevLens[i])
		}
		l.drain(nil) // arm the staging block
	}
}

// LaneOf returns rank's lane of the current run. The simulator calls it once
// per rank at attach time.
func (r *Recorder) LaneOf(rank int) *Lane {
	return &r.lanes[rank]
}

// EndRun seals the current run with its result. clean must be false when the
// teardown could have left rank goroutines running (their lanes may still be
// written to and are discarded). The simulator calls it; user code does not.
// A clean EndRun drains every lane's staging block; on spill-backed runs it
// then flushes the remaining lane chunks, joins the encoder and writes the
// summary, index and footer, completing the spill file. An unclean one
// stops the encoder; chunks of ranks still recording are then refused.
func (r *Recorder) EndRun(times []float64, makespan float64, messages, bytes int64, runErr error, clean bool) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recorded = true
	r.unclean = !clean
	r.runErr = runErr
	if times != nil {
		r.times = append([]float64(nil), times...)
	}
	r.makespan = makespan
	r.messages, r.bytes = messages, bytes
	if r.unclean {
		r.lanes = nil
		if r.sink != nil {
			r.sink.stop(ErrUnclean)
			if r.spillErr == nil {
				r.spillErr = ErrUnclean
			}
		}
		return
	}
	// Drain and flush the per-lane remainders in rank order (deterministic
	// tail layout), then seal the file.
	for i := range r.lanes {
		l := &r.lanes[i]
		l.drain(l.stage)
		if r.sink != nil {
			l.flush()
		}
	}
	if r.sink != nil {
		r.sink.stop(nil)
		errMsg := ""
		if runErr != nil {
			errMsg = runErr.Error()
		}
		sum := Summary{Times: r.times, MakeSpan: makespan, Messages: messages,
			Bytes: bytes, Steps: r.sink.steps(), ErrMsg: errMsg}
		if err := r.sink.finish(sum); err != nil && r.spillErr == nil {
			r.spillErr = err
		}
	}
}

// Trace merges the recorded lanes into the analyzable, deterministic view of
// the run. It may be called any number of times; each call builds a fresh
// Trace from the sealed lanes. On spill-backed runs it returns ErrSpilled:
// the events live in the spill file.
func (r *Recorder) Trace() (*Trace, error) {
	if r == nil {
		return nil, ErrNoRun
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.recorded {
		return nil, ErrNoRun
	}
	if r.unclean {
		return nil, ErrUnclean
	}
	if r.spilled {
		return nil, ErrSpilled
	}
	// The returned view shares the lane storage; the next BeginRun must
	// allocate fresh lanes instead of truncating these.
	r.exported = true
	t := &Trace{
		Meta:     r.meta,
		Times:    append([]float64(nil), r.times...),
		MakeSpan: r.makespan,
		Messages: r.messages,
		Bytes:    r.bytes,
		Err:      r.runErr,
		lanes:    make([]Cols, len(r.lanes)),
	}
	for i := range r.lanes {
		t.lanes[i] = r.lanes[i].c
	}
	return t, nil
}

// Source is the lane-level view of one recorded run that every analysis,
// exporter and rollup consumes: run metadata, the run summary, and ordered
// per-lane column access. Both the in-RAM *Trace and the spill-backed
// *Spill implement it, so a P=65536 run analyzed off disk flows through the
// same single-pass consumers as a P=16 run held in memory.
type Source interface {
	// RunMeta returns the run's metadata.
	RunMeta() Meta
	// RunSummary returns the run-level result data.
	RunSummary() Summary
	// NumLanes returns the lane (rank) count.
	NumLanes() int
	// LaneLen returns the number of events in rank's lane without decoding
	// it.
	LaneLen(rank int) int
	// LaneCols returns rank's whole lane, every column, in lane (clock)
	// order; treat it as read-only. An in-RAM trace returns a view of its
	// own storage; a spill decodes the lane's chunks into fresh columns on
	// every call, so over a spill prefer the analyses, which stream chunks
	// and never hold a lane.
	LaneCols(rank int) (*Cols, error)
}

// Trace is the merged, immutable view of one recorded run.
type Trace struct {
	// Meta labels the run (procs, seed, machine, workload).
	Meta Meta
	// Times are the per-rank final virtual times of the run (nil when the
	// run failed before producing a result).
	Times []float64
	// MakeSpan is the run's virtual makespan.
	MakeSpan float64
	// Messages and Bytes total the delivered traffic.
	Messages int64
	Bytes    int64
	// Err is the run's error, if any.
	Err error

	// lanes holds each rank's columns in that rank's own clock order. The
	// arrays are shared with the recorder; treat them as read-only.
	lanes []Cols

	// cp memoizes CriticalPath: the trace is immutable, every consumer
	// (report, CLI assert, experiment series) wants the same chain, and the
	// walk is O(events). Guarded by a Once so a Trace is safe to analyze
	// from concurrent readers.
	cpOnce sync.Once
	cp     *CriticalPath
}

// RunMeta implements Source.
func (t *Trace) RunMeta() Meta { return t.Meta }

// RunSummary implements Source.
func (t *Trace) RunSummary() Summary {
	errMsg := ""
	if t.Err != nil {
		errMsg = t.Err.Error()
	}
	return Summary{Times: t.Times, MakeSpan: t.MakeSpan, Messages: t.Messages,
		Bytes: t.Bytes, Steps: t.Steps(), ErrMsg: errMsg}
}

// NumLanes returns the lane (rank) count.
func (t *Trace) NumLanes() int { return len(t.lanes) }

// LaneLen returns the number of events in rank's lane.
func (t *Trace) LaneLen(rank int) int { return t.lanes[rank].Len() }

// LaneCols returns rank's columns; for an in-RAM trace the view stays valid
// for the trace's lifetime.
func (t *Trace) LaneCols(rank int) (*Cols, error) { return &t.lanes[rank], nil }

// LaneEvents materializes rank's lane as an event slice, in lane order.
func (t *Trace) LaneEvents(rank int) []Event {
	c := &t.lanes[rank]
	out := make([]Event, c.Len())
	for i := range out {
		out[i] = c.Event(i, int32(rank))
	}
	return out
}

// Events returns all lanes merged into one deterministic stream, ordered by
// (T0, T1, rank, per-rank sequence). Because each lane is deterministic and
// the key is a pure function of the events, repeated runs with the same seed
// yield identical streams.
func (t *Trace) Events() []Event {
	out := make([]Event, 0, t.NumEvents())
	for rank := range t.lanes {
		out = append(out, t.LaneEvents(rank)...)
	}
	sort.SliceStable(out, func(i, j int) bool { return eventBefore(&out[i], &out[j]) })
	return out
}

// NumEvents returns the total event count across all lanes.
func (t *Trace) NumEvents() int { return NumEventsOf(t) }

// Steps returns the number of superstep buckets the trace covers: one more
// than the highest Step stamped on any event, so events recorded after the
// final boundary mark still land in a bucket of their own.
func (t *Trace) Steps() int {
	max := int32(0)
	for i := range t.lanes {
		for _, s := range t.lanes[i].Step {
			if s > max {
				max = s
			}
		}
	}
	return int(max) + 1
}

// NumEventsOf totals the lane lengths of any source.
func NumEventsOf(src Source) int {
	n := 0
	for rank := 0; rank < src.NumLanes(); rank++ {
		n += src.LaneLen(rank)
	}
	return n
}
