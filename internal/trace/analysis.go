package trace

import (
	"fmt"
	"sort"

	"hbsp/internal/stats"
)

// This file holds the analysis passes over a recorded run: critical-path
// extraction (the chain of compute intervals and gating messages that
// determines the makespan), per-rank and per-superstep time breakdowns, and
// h-relation statistics. Each pass is a streaming consumer of the Source
// interface — it reads one lane at a time, a chunk at a time, names the
// columns it reads and never materializes a merged event slice — so the same
// code analyzes an in-RAM Trace and a spill file of a P=65536 run. All passes
// are pure functions of the run, so on a deterministic trace they are
// deterministic themselves; they visit lanes in rank-major order, which also
// pins the floating-point accumulation order, so a streaming pass is
// bit-identical to the materialized pass it replaced.

// Category buckets blocked and busy time for the breakdowns.
type Category uint8

const (
	// CatCompute is local computation.
	CatCompute Category = iota
	// CatSend is sender-side injection overhead.
	CatSend
	// CatStraggler is receive-wait time spent before the gating message had
	// even left its sender: waiting for a peer that was running late.
	CatStraggler
	// CatLatency is receive-wait time after the gating message left its
	// sender: network latency, serialization and extraction-port time.
	CatLatency
	// CatPort is receive-wait time gated by the local extraction port (the
	// message had long arrived; back-to-back matches serialized it).
	CatPort
	// CatAck is send-wait time (injection-port drain and, in ack mode, the
	// returning acknowledgement).
	CatAck
	// CatAdvance is explicit clock alignment (AdvanceTo).
	CatAdvance
	// CatSkew is end-of-run idle: the gap between a rank's finish time and
	// the makespan.
	CatSkew
	numCategories
)

// Categories lists all categories in report order.
var Categories = []Category{CatCompute, CatSend, CatStraggler, CatLatency, CatPort, CatAck, CatAdvance, CatSkew}

// String names the category as the reports print it.
func (c Category) String() string {
	switch c {
	case CatCompute:
		return "compute"
	case CatSend:
		return "send-overhead"
	case CatStraggler:
		return "straggler-wait"
	case CatLatency:
		return "latency-wait"
	case CatPort:
		return "port-wait"
	case CatAck:
		return "ack-wait"
	case CatAdvance:
		return "advance"
	case CatSkew:
		return "finish-skew"
	}
	return "unknown"
}

// linkValid reports whether event i of lane c carries a resolvable link to
// the send event in its peer's lane — the condition both the breakdown split
// and the critical-path hop require.
func linkValid(src Source, c *Cols, i int) bool {
	peer, seq := c.Peer[i], c.SendSeq[i]
	return peer >= 0 && int(peer) < src.NumLanes() && seq >= 0 && int(seq) < src.LaneLen(int(peer))
}

// classifyCols splits event i's duration over the breakdown categories.
// Receive waits are split at the moment the gating message left its sender:
// before it the receiver was waiting on a straggling peer, after it on the
// network. The sender's injection end rides on the event itself (SendEnd),
// stamped from the message at record time, so the split reads only the
// receiver's own lane.
func classifyCols(src Source, c *Cols, i int, add func(Category, float64)) {
	d := c.T1[i] - c.T0[i]
	if d <= 0 {
		return
	}
	switch c.Kind[i] {
	case KindCompute:
		add(CatCompute, d)
	case KindSend:
		add(CatSend, d)
	case KindSendWait:
		add(CatAck, d)
	case KindAdvance:
		add(CatAdvance, d)
	case KindRecvWait:
		if c.Flags[i]&flagGated == 0 {
			add(CatPort, d)
			return
		}
		sendEnd := c.T0[i]
		if linkValid(src, c, i) {
			sendEnd = c.SendEnd[i]
		}
		straggle := sendEnd - c.T0[i]
		if straggle < 0 {
			straggle = 0
		}
		if straggle > d {
			straggle = d
		}
		add(CatStraggler, straggle)
		add(CatLatency, d-straggle)
	}
}

// RankBreakdown is one rank's wall-time attribution over the whole run.
type RankBreakdown struct {
	Rank   int
	Finish float64
	// ByCategory sums event durations per category; CatSkew is the gap to
	// the makespan, so the categories of a fully traced rank sum to the
	// makespan up to untracked zero-cost operations.
	ByCategory [numCategories]float64
}

// StepBreakdown aggregates one superstep bucket across all ranks.
type StepBreakdown struct {
	Step int
	// ByCategory sums the categories across every rank's events of the step.
	ByCategory [numCategories]float64
	// Boundary is the latest superstep-boundary mark of the step (zero when
	// the bucket has no marks, e.g. the trailing partial step).
	Boundary float64
	// Straggler is the rank with the latest boundary mark, -1 without marks.
	Straggler int
}

// Breakdown is the full time-attribution view of a trace.
type Breakdown struct {
	// PerRank holds one entry per rank, indexed by rank.
	PerRank []RankBreakdown
	// PerStep holds one entry per superstep bucket, indexed by step.
	PerStep []StepBreakdown
	// MakeSpan mirrors the trace's makespan.
	MakeSpan float64
}

// TotalByCategory sums a category across all ranks.
func (b *Breakdown) TotalByCategory(c Category) float64 {
	total := 0.0
	for i := range b.PerRank {
		total += b.PerRank[i].ByCategory[c]
	}
	return total
}

// Breakdown attributes every rank's wall time to the breakdown categories,
// overall and per superstep.
func (t *Trace) Breakdown() *Breakdown {
	b, _ := BreakdownOf(t) // the in-RAM source cannot fail
	return b
}

// colsBreakdown are the columns classifyCols and the breakdown read.
const colsBreakdown = colFlags | colPeer | colStep | colSendSeq | colT0 | colT1 | colSendEnd

// BreakdownOf computes the time attribution of any source, streaming one
// lane at a time in rank order.
func BreakdownOf(src Source) (*Breakdown, error) {
	sum := src.RunSummary()
	b := &Breakdown{
		PerRank:  make([]RankBreakdown, src.NumLanes()),
		PerStep:  make([]StepBreakdown, sum.Steps),
		MakeSpan: sum.MakeSpan,
	}
	for s := range b.PerStep {
		b.PerStep[s].Step = s
		b.PerStep[s].Straggler = -1
	}
	for rank := range b.PerRank {
		rb := &b.PerRank[rank]
		rb.Rank = rank
		if rank < len(sum.Times) {
			rb.Finish = sum.Times[rank]
		}
		rb.ByCategory[CatSkew] = sum.MakeSpan - rb.Finish
	}
	err := src.eachLane(colsBreakdown, func(rank int, c *Cols) {
		rb := &b.PerRank[rank]
		for i, n := 0, c.Len(); i < n; i++ {
			if c.Kind[i] == KindSuperstep {
				sb := &b.PerStep[c.Step[i]]
				if c.T1[i] > sb.Boundary || sb.Straggler < 0 {
					sb.Boundary = c.T1[i]
					sb.Straggler = rank
				}
				continue
			}
			step := c.Step[i]
			classifyCols(src, c, i, func(cat Category, d float64) {
				rb.ByCategory[cat] += d
				b.PerStep[step].ByCategory[cat] += d
			})
		}
	})
	if err != nil {
		return nil, err
	}
	return b, nil
}

// PathHop is one rank residency on the critical path: criticality arrived on
// this rank (via the message described by ViaPeer/ViaTag for every hop after
// the first), stayed for [From, To], and left through the next hop's message.
type PathHop struct {
	Rank     int
	From, To float64
	// ViaPeer/ViaTag/ViaSize describe the gating message that moved
	// criticality onto this rank's successor... — for hop i > 0, the message
	// that carried criticality from Hops[i-1].Rank to this hop's Rank.
	ViaPeer int
	ViaTag  int
	ViaSize int
	// InFlight is the time the gating message spent between leaving ViaPeer
	// and completing this rank's receive (latency, serialization, ports).
	InFlight float64
	// Compute, Send and Wait attribute the residency's event time.
	Compute, Send, Wait float64
}

// CriticalPath is the gating chain of a trace.
type CriticalPath struct {
	// Hops lists the rank residencies in time order; the last hop ends at
	// End on the rank that set the makespan.
	Hops []PathHop
	// End is the virtual end time of the chain. For a fully traced run it
	// equals the makespan bit-for-bit (the final clock advance of the
	// slowest rank is itself a recorded event).
	End float64
	// Rank is the makespan-setting rank the walk started from.
	Rank int
	// Compute, Send, Wait and InFlight total the chain's time by origin.
	Compute, Send, Wait, InFlight float64
	// Slack is, per rank, the distance of the rank's finish time from the
	// makespan (zero for the critical rank).
	Slack []float64
}

// CriticalPath extracts the chain of compute intervals and gating messages
// that determines the makespan: starting from the last event of the slowest
// rank it walks backwards; a receive wait that was gated by its message's
// arrival hops to the matching send event on the sender's lane, every other
// event chains to its on-rank predecessor (per-rank events are contiguous in
// time, since every clock advance is recorded). The walk runs once per
// Trace; repeated calls return the same memoized chain.
func (t *Trace) CriticalPath() *CriticalPath {
	t.cpOnce.Do(func() { t.cp, _ = CriticalPathOf(t) })
	return t.cp
}

// colsCriticalPath are the columns the backward walk reads: everything but
// Step, Stage and Arrival.
const colsCriticalPath = colFlags | colPeer | colTag | colSize | colSendSeq | colT0 | colT1 | colSendEnd

// CriticalPathOf runs the backward walk over any source. The walk reads one
// window of one lane at a time — the chunk its current event sits in —
// stepping to the previous chunk when it crosses the window's base and to
// the sender's chunk on a hop (the SendEnd stamp makes receive waits
// self-contained), so a spill-backed walk decodes the chunks it lands in and
// no others.
func CriticalPathOf(src Source) (*CriticalPath, error) {
	sum := src.RunSummary()
	cp := &CriticalPath{Rank: -1, Slack: make([]float64, src.NumLanes())}
	for rank, ft := range sum.Times {
		cp.Slack[rank] = sum.MakeSpan - ft
		if cp.Rank < 0 || ft > sum.Times[cp.Rank] {
			cp.Rank = rank
		}
	}
	if cp.Rank < 0 || src.LaneLen(cp.Rank) == 0 {
		return cp, nil
	}

	cur := cp.Rank
	i := src.LaneLen(cur) - 1 // index in cur's lane; c holds it at i-base
	c, base, err := src.laneWindow(cur, i, colsCriticalPath)
	if err != nil {
		return nil, err
	}
	cp.End = c.T1[i-base]
	hop := PathHop{Rank: cur, To: cp.End, ViaPeer: -1, ViaTag: -1}
	var rev []PathHop
	// Every step moves to an event that happened before the one it leaves,
	// so a walk visits no event twice; one that outlives the event count is
	// following links a damaged file made into a cycle.
	for left := NumEventsOf(src); i >= 0; left-- {
		if left < 0 {
			return nil, fmt.Errorf("%w: send links form a cycle (critical-path walk at rank %d, event %d)", ErrCorruptSpill, cur, i)
		}
		if i < base {
			if c, base, err = src.laneWindow(cur, i, colsCriticalPath); err != nil {
				return nil, err
			}
		}
		k := i - base
		if c.T0[k] == c.T1[k] { // boundary marks carry no time
			i--
			continue
		}
		if c.Kind[k] == KindRecvWait && c.Flags[k]&flagGated != 0 && linkValid(src, c, k) {
			// The residency on cur starts where the gating wait ends its
			// in-flight portion; the chain segment [sendEnd, T1] is the
			// message in flight (latency, transfer, ports).
			hop.From = c.T1[k]
			hop.ViaPeer = int(c.Peer[k])
			hop.ViaTag = int(c.Tag[k])
			hop.ViaSize = int(c.Size[k])
			hop.InFlight = c.T1[k] - c.SendEnd[k]
			cp.InFlight += hop.InFlight
			rev = append(rev, hop)
			cur, i = int(c.Peer[k]), int(c.SendSeq[k])
			if c, base, err = src.laneWindow(cur, i, colsCriticalPath); err != nil {
				return nil, err
			}
			hop = PathHop{Rank: cur, To: c.T1[i-base], ViaPeer: -1, ViaTag: -1}
			continue
		}
		d := c.T1[k] - c.T0[k]
		switch c.Kind[k] {
		case KindCompute:
			hop.Compute += d
			cp.Compute += d
		case KindSend:
			hop.Send += d
			cp.Send += d
		default:
			hop.Wait += d
			cp.Wait += d
		}
		hop.From = c.T0[k]
		i--
	}
	rev = append(rev, hop)
	cp.Hops = make([]PathHop, 0, len(rev))
	for k := len(rev) - 1; k >= 0; k-- {
		cp.Hops = append(cp.Hops, rev[k])
	}
	return cp, nil
}

// HRelation summarizes the communication relation of one superstep bucket:
// the classic h (the maximum, over ranks, of the larger of in- and out-bytes)
// plus sample statistics of the per-rank volumes, computed with
// internal/stats.
type HRelation struct {
	Step int
	// HBytes and HMessages are max over ranks of max(in, out).
	HBytes    int64
	HMessages int
	// Messages and Bytes total the step's traffic.
	Messages int
	Bytes    int64
	// MeanOutBytes / MedianOutBytes / MaxOutBytes summarize per-rank sent
	// volume; MaxOutRank is the argmax.
	MeanOutBytes   float64
	MedianOutBytes float64
	MaxOutBytes    int64
	MaxOutRank     int
}

// HRelations computes per-superstep h-relation statistics from the send
// events (attributed to the sender's superstep).
func (t *Trace) HRelations() []HRelation {
	hrs, _ := HRelationsOf(t) // the in-RAM source cannot fail
	return hrs
}

// colsHRelations are the four columns the h-relation pass reads (Kind
// included).
const colsHRelations = colPeer | colSize | colStep

// HRelationsOf computes the h-relation statistics of any source in one
// streaming pass over the send events of each lane; only the O(steps ×
// ranks) volume accumulators are held.
func HRelationsOf(src Source) ([]HRelation, error) {
	sum := src.RunSummary()
	steps := sum.Steps
	nl := src.NumLanes()
	outB := make([][]int64, steps)
	inB := make([][]int64, steps)
	outM := make([][]int, steps)
	inM := make([][]int, steps)
	for s := range outB {
		outB[s] = make([]int64, nl)
		inB[s] = make([]int64, nl)
		outM[s] = make([]int, nl)
		inM[s] = make([]int, nl)
	}
	err := src.eachLane(colsHRelations, func(rank int, c *Cols) {
		for i, n := 0, c.Len(); i < n; i++ {
			if c.Kind[i] != KindSend {
				continue
			}
			s := int(c.Step[i])
			outB[s][rank] += int64(c.Size[i])
			outM[s][rank]++
			if peer := c.Peer[i]; peer >= 0 && int(peer) < nl {
				inB[s][peer] += int64(c.Size[i])
				inM[s][peer]++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	out := make([]HRelation, steps)
	sample := make([]float64, nl)
	for s := range out {
		h := &out[s]
		h.Step = s
		h.MaxOutRank = -1
		for r := 0; r < nl; r++ {
			ob, ib := outB[s][r], inB[s][r]
			om, im := outM[s][r], inM[s][r]
			h.Bytes += ob
			h.Messages += om
			if m := max(ob, ib); m > h.HBytes {
				h.HBytes = m
			}
			if m := max(om, im); m > h.HMessages {
				h.HMessages = m
			}
			if ob > h.MaxOutBytes || h.MaxOutRank < 0 {
				h.MaxOutBytes = ob
				h.MaxOutRank = r
			}
			sample[r] = float64(ob)
		}
		h.MeanOutBytes, _ = stats.Mean(sample)
		h.MedianOutBytes, _ = stats.Median(sample)
	}
	return out, nil
}

// Straggler pairs a rank with its end-of-run slack, for ranking.
type Straggler struct {
	Rank  int
	Slack float64
}

// StragglersOf returns the source's ranks ordered by increasing slack (the
// critical rank first), ties broken by rank; it reads only the run summary,
// never the lanes.
func StragglersOf(src Source) []Straggler {
	sum := src.RunSummary()
	out := make([]Straggler, src.NumLanes())
	for rank := range out {
		s := Straggler{Rank: rank, Slack: sum.MakeSpan}
		if rank < len(sum.Times) {
			s.Slack = sum.MakeSpan - sum.Times[rank]
		}
		out[rank] = s
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Slack != out[j].Slack {
			return out[i].Slack < out[j].Slack
		}
		return out[i].Rank < out[j].Rank
	})
	return out
}

// TopSlack returns the k ranks with the largest slack (the worst
// stragglers), slack descending, ties broken by rank, without sorting all P
// ranks: a size-k selection over the summary times.
func TopSlack(src Source, k int) []Straggler {
	sum := src.RunSummary()
	nl := src.NumLanes()
	if k > nl {
		k = nl
	}
	if k <= 0 {
		return nil
	}
	// worse reports whether a should rank above b (more slack, then lower
	// rank).
	worse := func(a, b Straggler) bool {
		if a.Slack != b.Slack {
			return a.Slack > b.Slack
		}
		return a.Rank < b.Rank
	}
	top := make([]Straggler, 0, k)
	for rank := 0; rank < nl; rank++ {
		s := Straggler{Rank: rank, Slack: sum.MakeSpan}
		if rank < len(sum.Times) {
			s.Slack = sum.MakeSpan - sum.Times[rank]
		}
		if len(top) == k && !worse(s, top[k-1]) {
			continue
		}
		i := sort.Search(len(top), func(i int) bool { return worse(s, top[i]) })
		if len(top) < k {
			top = append(top, Straggler{})
		}
		copy(top[i+1:], top[i:])
		top[i] = s
	}
	return top
}
