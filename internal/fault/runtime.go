package fault

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Runtime is a plan compiled against a rank count, queried by the LogGP
// kernel (internal/loggp) from both engines' hot paths. It is immutable after
// Compile, and every query is a pure function of (plan, rank, noise
// sequence, virtual clock), never of wall-clock or goroutine order, so any
// number of goroutines — the ranks of a concurrent run, the workers of a split
// per-rank walk — may query one Runtime at once.
type Runtime struct {
	procs     int
	seed      int64
	pairClass func(i, j int) uint8
	slow      [][]Slowdown // per rank, window-sorted
	fail      []failState  // per rank
	links     []LinkRule
	uniform   bool
}

type failState struct {
	has     bool
	failAt  float64
	penalty float64
}

// Compile validates the plan and freezes it for a machine with procs ranks.
// pairClass resolves distance classes for class-matched link rules (pass the
// machine's PairClass, or nil when unavailable — class-matched rules then
// fail compilation). An empty plan compiles to a nil Runtime so callers keep
// a single pointer test on the fault-free hot path.
func Compile(p *Plan, procs int, pairClass func(i, j int) uint8) (*Runtime, error) {
	if p.Empty() {
		if p != nil {
			if err := p.Validate(procs); err != nil {
				return nil, err
			}
		}
		return nil, nil
	}
	if err := p.Validate(procs); err != nil {
		return nil, err
	}
	rt := &Runtime{procs: procs, seed: p.Seed, pairClass: pairClass}
	rt.slow = make([][]Slowdown, procs)
	for _, s := range p.Slowdowns {
		rt.slow[s.Rank] = append(rt.slow[s.Rank], s)
	}
	rt.fail = make([]failState, procs)
	for _, f := range p.FailStops {
		rt.fail[f.Rank] = failState{has: true, failAt: f.FailAt, penalty: f.Penalty()}
	}
	rt.links = append(rt.links, p.Links...)
	for _, l := range rt.links {
		if l.Class >= 0 && pairClass == nil {
			return nil, invalidf("link rule matches distance class %d but the machine does not expose pair classes", l.Class)
		}
	}
	rt.uniform = len(p.Slowdowns) == 0 && len(p.FailStops) == 0
	for _, l := range rt.links {
		if l.Src >= 0 || l.Dst >= 0 {
			rt.uniform = false
		}
	}
	return rt, nil
}

func inWindow(t, start, end float64) bool {
	return t >= start && (end <= 0 || t < end)
}

// Slow returns the slowdown multiplier for rank's seq-th noise draw at
// virtual time now (1 when no rule is active). The jitter draw is a seeded
// half-normal, deterministic in (plan seed, rank, seq) exactly like
// platform.Machine.Noise.
func (rt *Runtime) Slow(rank int, seq uint64, now float64) float64 {
	for i := range rt.slow[rank] {
		r := &rt.slow[rank][i]
		if !inWindow(now, r.Start, r.End) {
			continue
		}
		f := r.Factor
		if r.Jitter > 0 {
			f *= 1 + r.Jitter*rt.halfNormal(rank, seq)
		}
		return f
	}
	return 1
}

func (rt *Runtime) halfNormal(rank int, seq uint64) float64 {
	h := mix64(uint64(rt.seed)*0x9e3779b97f4a7c15 ^ (uint64(rank)+1)*0xff51afd7ed558ccd ^ (seq+1)*0x94d049bb133111eb)
	u1 := (float64(h>>11) + 0.5) / float64(1<<53)
	h2 := mix64(h ^ 0x2545f4914f6cdd1d)
	u2 := (float64(h2>>11) + 0.5) / float64(1<<53)
	return math.Abs(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// mix64 is the splitmix64 finalizer, the same mixing platform's noise stream
// uses (with a distinct multiplier salt so slowdown jitter and machine noise
// streams never coincide).
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// HasLinks reports whether any link rule exists, gating the per-send query.
func (rt *Runtime) HasLinks() bool { return len(rt.links) > 0 }

// Link returns the latency and transfer-time multipliers for a message
// injected from src to dst at the sender's virtual time t (1, 1 when no rule
// matches). Matching rules multiply together.
func (rt *Runtime) Link(src, dst int, t float64) (lat, beta float64) {
	lat, beta = 1, 1
	for i := range rt.links {
		r := &rt.links[i]
		if !rt.linkMatches(r, src, dst) || !inWindow(t, r.Start, r.End) {
			continue
		}
		lat *= r.LatencyFactor
		beta *= r.BetaFactor
	}
	return lat, beta
}

func (rt *Runtime) linkMatches(r *LinkRule, src, dst int) bool {
	if r.Src >= 0 && r.Src != src {
		return false
	}
	if r.Dst >= 0 && r.Dst != dst {
		return false
	}
	if r.Class >= 0 && int(rt.pairClass(src, dst)) != r.Class {
		return false
	}
	return true
}

// Cross applies the fail-stop transform to an advance of rank's clock from
// old to next: if the advance crosses the rank's fail time, the crash
// penalty (restart + recompute from the last checkpoint) is added and
// returned. The invariant "penalty consumed ⇔ clock >= fail time" keeps the
// fail-stop state fully derivable from the clock itself, so the rank state
// copied between the engines at a gate rendezvous (loggp.State) needs no
// extra fields.
func (rt *Runtime) Cross(rank int, old, next float64) (adjusted, penalty float64) {
	f := &rt.fail[rank]
	if !f.has || old >= f.failAt || next < f.failAt {
		return next, 0
	}
	return next + f.penalty, f.penalty
}

// Uniform reports whether the plan treats every rank identically and every
// pair of the same distance class identically: no slowdowns, no fail-stops,
// and only class- or wildcard-matched link rules. Uniform plans preserve the
// single-class symmetry collapse of circulant schedules on uniform machines.
func (rt *Runtime) Uniform() bool { return rt.uniform }

// EdgeSig returns a bitmask of the link rules matching the directed edge
// src→dst, ignoring activation windows (windows are decided by the sender's
// clock, which is identical across ranks of one equivalence class). The
// collapse refinement folds it into each edge's signature so two ranks share
// a class only if their corresponding edges are degraded by the same rules.
func (rt *Runtime) EdgeSig(src, dst int) uint64 {
	var mask uint64
	for i := range rt.links {
		if rt.linkMatches(&rt.links[i], src, dst) {
			mask |= 1 << uint(i)
		}
	}
	return mask
}

// AppendFingerprint appends a canonical encoding of every rank-specific
// fault treatment of rank (slowdown rules and fail-stop; rank-targeted link
// rules are handled per edge via EdgeSig). Ranks with equal fingerprints are
// eligible to share a collapse class; a rank with jittered slowdowns gets a
// rank-unique fingerprint because its jitter stream depends on the rank.
func (rt *Runtime) AppendFingerprint(sig []byte, rank int) []byte {
	appendF := func(x float64) {
		sig = binary.LittleEndian.AppendUint64(sig, math.Float64bits(x))
	}
	for i := range rt.slow[rank] {
		r := &rt.slow[rank][i]
		sig = append(sig, 's')
		appendF(r.Factor)
		appendF(r.Jitter)
		appendF(r.Start)
		appendF(r.End)
		if r.Jitter > 0 {
			sig = binary.AppendUvarint(sig, uint64(rank)+1)
		}
	}
	if f := &rt.fail[rank]; f.has {
		sig = append(sig, 'f')
		appendF(f.failAt)
		appendF(f.penalty)
	}
	return sig
}

// Describe renders the plan as deterministic one-line descriptions, in rule
// order — the trace subsystem stamps them into exported trace metadata so
// Chrome exports show which scenario produced the timeline.
func (rt *Runtime) Describe() []string {
	if rt == nil {
		return nil
	}
	var out []string
	window := func(start, end float64) string {
		if start == 0 && end <= 0 {
			return ""
		}
		if end <= 0 {
			return fmt.Sprintf(" in [%g,inf)", start)
		}
		return fmt.Sprintf(" in [%g,%g)", start, end)
	}
	for rank, rules := range rt.slow {
		for i := range rules {
			r := &rules[i]
			d := fmt.Sprintf("slowdown rank %d x%g", rank, r.Factor)
			if r.Jitter > 0 {
				d += fmt.Sprintf(" jitter %g", r.Jitter)
			}
			out = append(out, d+window(r.Start, r.End))
		}
	}
	for i := range rt.links {
		r := &rt.links[i]
		d := "degrade link"
		if r.Src >= 0 {
			d += fmt.Sprintf(" src %d", r.Src)
		}
		if r.Dst >= 0 {
			d += fmt.Sprintf(" dst %d", r.Dst)
		}
		if r.Class >= 0 {
			d += fmt.Sprintf(" class %d", r.Class)
		}
		if r.Src < 0 && r.Dst < 0 && r.Class < 0 {
			d += " any"
		}
		out = append(out, d+fmt.Sprintf(" lat x%g beta x%g", r.LatencyFactor, r.BetaFactor)+window(r.Start, r.End))
	}
	for rank, f := range rt.fail {
		if f.has {
			out = append(out, fmt.Sprintf("fail-stop rank %d at %g penalty %g", rank, f.failAt, f.penalty))
		}
	}
	return out
}
