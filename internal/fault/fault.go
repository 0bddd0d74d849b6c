// Package fault defines deterministic fault and straggler injection for the
// virtual-time simulator: per-rank slowdowns (persistent or windowed, with an
// optional seeded jitter distribution), per-link/class degradation windows
// (latency and bandwidth multipliers), and fail-stop crashes at a virtual
// time with checkpoint/restart cost accounting.
//
// A Plan is pure data. It is validated against a rank count (Validate,
// ErrInvalid) and compiled into a Runtime the engines query from their hot
// paths; every query is a pure function of the plan, the rank, the noise
// sequence number and the rank's virtual clock, so the concurrent simnet
// engine and the goroutine-free sched evaluator — which perform the same
// operations at the same virtual times — observe bit-identical fault effects
// regardless of goroutine scheduling. An empty plan compiles to a nil
// Runtime: the fault-free hot path stays a single pointer test.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrInvalid is the sentinel all plan validation errors wrap; the facade
// re-exports it as hbsp.ErrInvalidFault.
var ErrInvalid = errors.New("invalid fault plan")

// Slowdown multiplies every noise draw of one rank — compute intervals, send
// overheads and the transit jitter of messages it injects — by Factor while
// the rank's virtual clock is inside [Start, End). End <= 0 leaves the
// window open-ended (a persistent straggler); windowed rules express
// per-phase slowdowns. With Jitter > 0 the factor itself is drawn per event
// from a seeded half-normal, Factor·(1 + Jitter·|z|), making the slowdown a
// distribution rather than a constant.
type Slowdown struct {
	Rank   int
	Factor float64
	Jitter float64
	Start  float64
	End    float64
}

// LinkRule degrades the links it matches: transfers injected while the
// sender's clock is inside [Start, End) see their latency multiplied by
// LatencyFactor and their serialized transfer time (inverse bandwidth) by
// BetaFactor. Src and Dst restrict the rule to a sending and/or receiving
// rank (-1 matches any); Class restricts it to one distance class of the
// machine (cluster.DistanceNetwork etc.; -1 matches any). The multipliers
// sampled at injection govern the whole exchange, including the
// acknowledgement's return latency under AckSends. End <= 0 leaves the
// window open-ended.
type LinkRule struct {
	Src           int
	Dst           int
	Class         int
	LatencyFactor float64
	BetaFactor    float64
	Start         float64
	End           float64
}

// FailStop crashes Rank the first time its virtual clock crosses FailAt: the
// rank pays Restart (reboot/rejoin cost) plus the recompute time back to its
// last checkpoint — Checkpoint > 0 checkpoints every Checkpoint seconds, so
// the recompute cost is FailAt mod Checkpoint; Checkpoint == 0 means no
// checkpointing and the rank recomputes from time zero. Surviving ranks are
// not modified: they stall at their next rendezvous with the failed rank
// through the ordinary LogGP recurrence (its messages arrive late) until it
// catches up. At most one FailStop per rank.
type FailStop struct {
	Rank       int
	FailAt     float64
	Restart    float64
	Checkpoint float64
}

// Penalty returns the total virtual-time cost of the crash: the restart
// penalty plus the recompute time from the last checkpoint before FailAt.
func (f FailStop) Penalty() float64 {
	recompute := f.FailAt
	if f.Checkpoint > 0 {
		recompute = f.FailAt - math.Floor(f.FailAt/f.Checkpoint)*f.Checkpoint
	}
	return f.Restart + recompute
}

// Plan is a seed-deterministic fault scenario. The zero value injects
// nothing. Seed drives the Jitter draws of slowdown rules (and nothing
// else); two runs with the same machine seed and the same plan are
// bit-identical.
type Plan struct {
	Seed      int64
	Slowdowns []Slowdown
	Links     []LinkRule
	FailStops []FailStop
}

// Empty reports whether the plan injects nothing.
func (p *Plan) Empty() bool {
	return p == nil || (len(p.Slowdowns) == 0 && len(p.Links) == 0 && len(p.FailStops) == 0)
}

// maxLinkRules bounds the link-rule count so per-edge rule matches can be
// summarized as a single bitmask during symmetry-collapse refinement.
const maxLinkRules = 64

// maxMagnitude bounds a plan's factors, jitter and fail-stop times. They
// multiply into and add onto a run's virtual times — a slowdown and a link
// factor multiply one message — so unbounded, two finite numbers of a valid
// plan carried a run to +Inf. At 1e12 the largest jittered slowdown times
// the largest link factor stays below 1e37.
const maxMagnitude = 1e12

// atMost reports whether every v is at most maxMagnitude.
func atMost(vs ...float64) bool {
	for _, v := range vs {
		if v > maxMagnitude {
			return false
		}
	}
	return true
}

func invalidf(format string, args ...interface{}) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Validate checks the plan against a rank count. All errors wrap ErrInvalid.
func (p *Plan) Validate(procs int) error {
	if p == nil {
		return invalidf("nil plan")
	}
	if procs < 1 {
		return invalidf("machine has %d ranks", procs)
	}
	perRank := make(map[int][]Slowdown)
	for i, s := range p.Slowdowns {
		if s.Rank < 0 || s.Rank >= procs {
			return invalidf("slowdown %d: rank %d out of range [0,%d)", i, s.Rank, procs)
		}
		if !(s.Factor > 0) || math.IsInf(s.Factor, 0) {
			return invalidf("slowdown %d: factor %v must be positive and finite", i, s.Factor)
		}
		if s.Jitter < 0 || math.IsInf(s.Jitter, 0) || math.IsNaN(s.Jitter) {
			return invalidf("slowdown %d: jitter %v must be >= 0 and finite", i, s.Jitter)
		}
		if !(s.Start >= 0) || math.IsInf(s.Start, 1) {
			return invalidf("slowdown %d: start %v must be >= 0 and finite", i, s.Start)
		}
		if math.IsNaN(s.End) || s.End != 0 && s.End <= s.Start {
			return invalidf("slowdown %d: window [%v,%v) is empty", i, s.Start, s.End)
		}
		if !atMost(s.Factor, s.Jitter) {
			return invalidf("slowdown %d: factor %v and jitter %v must be at most %g", i, s.Factor, s.Jitter, maxMagnitude)
		}
		perRank[s.Rank] = append(perRank[s.Rank], s)
	}
	for rank, rules := range perRank {
		sort.Slice(rules, func(a, b int) bool { return rules[a].Start < rules[b].Start })
		for i := 1; i < len(rules); i++ {
			prev := rules[i-1]
			if prev.End <= 0 || rules[i].Start < prev.End {
				return invalidf("rank %d: overlapping slowdown windows", rank)
			}
		}
	}
	if len(p.Links) > maxLinkRules {
		return invalidf("%d link rules exceed the maximum of %d", len(p.Links), maxLinkRules)
	}
	for i, l := range p.Links {
		if l.Src < -1 || l.Src >= procs {
			return invalidf("link rule %d: src %d out of range", i, l.Src)
		}
		if l.Dst < -1 || l.Dst >= procs {
			return invalidf("link rule %d: dst %d out of range", i, l.Dst)
		}
		if l.Class < -1 || l.Class > 255 {
			return invalidf("link rule %d: class %d out of range [-1,255]", i, l.Class)
		}
		if !(l.LatencyFactor > 0) || math.IsInf(l.LatencyFactor, 0) {
			return invalidf("link rule %d: latency factor %v must be positive and finite", i, l.LatencyFactor)
		}
		if !(l.BetaFactor > 0) || math.IsInf(l.BetaFactor, 0) {
			return invalidf("link rule %d: beta factor %v must be positive and finite", i, l.BetaFactor)
		}
		if !(l.Start >= 0) || math.IsInf(l.Start, 1) {
			return invalidf("link rule %d: start %v must be >= 0 and finite", i, l.Start)
		}
		if math.IsNaN(l.End) || l.End != 0 && l.End <= l.Start {
			return invalidf("link rule %d: window [%v,%v) is empty", i, l.Start, l.End)
		}
		if !atMost(l.LatencyFactor, l.BetaFactor) {
			return invalidf("link rule %d: latency factor %v and beta factor %v must be at most %g", i, l.LatencyFactor, l.BetaFactor, maxMagnitude)
		}
	}
	failed := make(map[int]bool)
	for i, f := range p.FailStops {
		if f.Rank < 0 || f.Rank >= procs {
			return invalidf("fail-stop %d: rank %d out of range [0,%d)", i, f.Rank, procs)
		}
		if failed[f.Rank] {
			return invalidf("fail-stop %d: rank %d fails more than once", i, f.Rank)
		}
		failed[f.Rank] = true
		if !(f.FailAt > 0) || math.IsInf(f.FailAt, 0) {
			return invalidf("fail-stop %d: fail time %v must be positive and finite", i, f.FailAt)
		}
		if f.Restart < 0 || math.IsInf(f.Restart, 0) || math.IsNaN(f.Restart) {
			return invalidf("fail-stop %d: restart penalty %v must be >= 0 and finite", i, f.Restart)
		}
		if f.Checkpoint < 0 || math.IsInf(f.Checkpoint, 0) || math.IsNaN(f.Checkpoint) {
			return invalidf("fail-stop %d: checkpoint interval %v must be >= 0 and finite", i, f.Checkpoint)
		}
		if !atMost(f.FailAt, f.Restart, f.Checkpoint) {
			return invalidf("fail-stop %d: fail time %v, restart penalty %v and checkpoint interval %v must be at most %g", i, f.FailAt, f.Restart, f.Checkpoint, maxMagnitude)
		}
	}
	return nil
}
