package platform

import (
	"fmt"
	"math"

	"hbsp/internal/kernels"
	"hbsp/internal/loggp"
	"hbsp/internal/topology"
)

// Machine is a fully instantiated platform for a given process count: the
// profile's link parameters frozen into one column per distance class, the
// placement that classifies every rank pair, and a deterministic run-to-run
// noise source. It satisfies the simnet.Machine interface structurally and is
// what the virtual-time simulator executes against.
//
// There is one representation at every rank count: a pairwise parameter is
// column[class(i, j)] * pairFactor(i, j) — the same two operands in the same
// single multiplication the profile formulas perform — computed on demand in
// O(P) memory. Pair prices an ordered pair with one classification (a field
// comparison of two placement records) and one hash; the engines call it once
// per message, the pairwise benchmark once per episode direction. The
// four single accessors answer the same way for callers that want one parameter.
type Machine struct {
	profile   *Profile
	placement *topology.Placement
	runSeed   int64
	draws     *Draws     // memo of runSeed's noise draws; only WithDraws sets it
	turn      *TurnDraws // the same for runs that take turns; only WithTurnDraws sets it

	// Per-distance-class link columns, indexed by topology.Distance. The self
	// column carries the exact self-pair values (zero latency/gap/beta, the
	// unscaled invocation overhead); PairTerm's factor is 1 there.
	lat, gap, beta, ovh [topology.DistanceGroup + 1]float64
}

// Machine instantiates the profile for the given number of ranks using the
// profile's default placement policy.
func (p *Profile) Machine(ranks int) (*Machine, error) {
	pl, err := p.Place(ranks)
	if err != nil {
		return nil, err
	}
	return p.MachineFor(pl), nil
}

// MachineFor instantiates the profile for an explicit placement.
func (p *Profile) MachineFor(pl *topology.Placement) *Machine {
	m := &Machine{profile: p, placement: pl, runSeed: p.Seed}
	m.ovh[topology.DistanceSelf] = p.SelfOverhead
	for d := topology.DistanceSocket; d <= topology.DistanceGroup; d++ {
		l := p.Links[d]
		m.lat[d], m.gap[d], m.beta[d], m.ovh[d] = l.Latency, l.Gap, l.Beta, l.Overhead
	}
	return m
}

// WithRunSeed returns a copy of the machine whose noise stream is derived
// from the given seed, so that repeated "runs" of the same experiment observe
// different jitter while remaining reproducible. The copy drops m's memo
// (WithDraws, WithTurnDraws), which serves m's seed; runs that share the new
// seed share a memo of it by handing one to the copy.
func (m *Machine) WithRunSeed(seed int64) *Machine {
	c := *m
	c.runSeed, c.draws, c.turn = seed, nil, nil
	return &c
}

// WithDraws returns a copy of the machine that reads its noise draws through
// d, so that runs under one seed compute each draw once between them — at
// several rank counts too, a rank's stream being one stream whatever P. A
// memo is its owner's, who makes it, hands it to the machines of the runs
// that share its seed and drops it with their results; nothing here keeps
// one. A Draws serves runs that overlap: a series sweeping P makes one for the
// profile's seed and hands it to every machine of the sweep, which its
// workers run at once; their ranks read its stored draws through windows
// (NoiseStream, Draws.Draw). A nil d, a d of another seed than the machine's,
// or a noise-free machine gives a copy that computes every draw. The copy
// drops a TurnDraws m reads through.
func (m *Machine) WithDraws(d *Draws) *Machine {
	c := *m
	c.draws, c.turn = nil, nil
	if d != nil && d.seed == m.runSeed && m.profile.NoiseRel > 0 {
		c.draws = d
	}
	return &c
}

// WithTurnDraws is WithDraws for a TurnDraws, the memo of runs that take
// turns, each starting after the one before it has returned. Its owners:
//   - a series re-seeding a machine (WithRunSeed) for the runs at one P that
//     share the seed, which it runs one after another;
//   - one multi-point sweep request of the prediction daemon, for the
//     request's seed, across its points.
//
// The copy drops a Draws m reads through.
func (m *Machine) WithTurnDraws(d *TurnDraws) *Machine {
	c := *m
	c.draws, c.turn = nil, nil
	if d != nil && d.seed == m.runSeed && m.profile.NoiseRel > 0 {
		c.turn = d
	}
	return &c
}

// RunSeed returns the seed the machine's noise stream is derived from: the
// profile's seed, or the override a WithRunSeed copy carries. The trace
// subsystem reads it so exported traces are labeled with the exact seed that
// produced them.
func (m *Machine) RunSeed() int64 { return m.runSeed }

// Profile returns the profile the machine was instantiated from.
func (m *Machine) Profile() *Profile { return m.profile }

// Placement returns the rank placement of the machine.
func (m *Machine) Placement() *topology.Placement { return m.placement }

// Procs returns the number of ranks.
func (m *Machine) Procs() int { return m.placement.Ranks() }

// Pair prices the ordered pair (i, j) once: the four LogGP parameters of a
// message from i to j, the return latency an acknowledged send bills
// (Latency(j, i); classes and factors are symmetric, so it equals lat), and
// whether the two ranks share a NIC (same node: every class below the
// network).
func (m *Machine) Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	return m.PriceTerm(m.PairTerm(i, j))
}

// PriceTerm is Pair's tail: the price of a message from a pair whose PairTerm
// is (factor, class), under this machine's link columns. A caller that keeps
// a pair's term across the machines TermCompatible accepts prices the pair on
// each of them without classifying or hashing it again, bit for bit what Pair
// returns there.
func (m *Machine) PriceTerm(factor float64, class uint8) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	lat = m.lat[class] * factor
	return lat, m.gap[class] * factor, m.beta[class] * factor, m.ovh[class] * factor, lat, class < uint8(topology.DistanceNetwork)
}

// Latency returns the ground-truth latency from rank i to rank j.
func (m *Machine) Latency(i, j int) float64 {
	f, c := m.PairTerm(i, j)
	return m.lat[c] * f
}

// Gap returns the per-message NIC occupancy from rank i to rank j.
func (m *Machine) Gap(i, j int) float64 {
	f, c := m.PairTerm(i, j)
	return m.gap[c] * f
}

// Beta returns the inverse bandwidth from rank i to rank j.
func (m *Machine) Beta(i, j int) float64 {
	f, c := m.PairTerm(i, j)
	return m.beta[c] * f
}

// Overhead returns the per-request sender CPU overhead from rank i to rank j.
func (m *Machine) Overhead(i, j int) float64 {
	f, c := m.PairTerm(i, j)
	return m.ovh[c] * f
}

// SelfOverhead returns the invocation overhead of rank i.
func (m *Machine) SelfOverhead(i int) float64 { return m.profile.SelfOverhead }

// NIC returns the network-interface index of rank i. Ranks on the same node
// share a NIC; messages between different NICs occupy both for their gap and
// serialized transfer time.
func (m *Machine) NIC(i int) int { return m.placement.NodeOf(i) }

// HomogeneousClasses reports whether the pairwise parameters are a pure
// function of the pair's distance class and the noise stream is identically
// 1 — no per-pair heterogeneity, no run-to-run jitter. This is the machine
// side of the symmetry-collapse eligibility test (sched.SymmetricMachine).
func (m *Machine) HomogeneousClasses() bool {
	return m.profile.HeteroSpread == 0 && m.profile.NoiseRel <= 0
}

// InhomogeneityReason names what breaks HomogeneousClasses — "hetero" for a
// per-pair heterogeneity spread, "noise" for run-to-run jitter — or "" when
// the machine is homogeneous. Collapse diagnostics (simnet.Collapse) surface
// it as the fallback reason.
func (m *Machine) InhomogeneityReason() string {
	if m.profile.HeteroSpread != 0 {
		return "hetero"
	}
	if m.profile.NoiseRel > 0 {
		return "noise"
	}
	return ""
}

// PairClass returns the distance class of the pair (i, j); under
// HomogeneousClasses, pairs of equal class have identical parameters.
func (m *Machine) PairClass(i, j int) uint8 {
	return uint8(m.placement.Distance(i, j))
}

// UniformPairs reports whether additionally every off-diagonal pair has the
// same class and crosses NICs — one rank per node on a homogeneous profile —
// so all ranks are interchangeable and circulant schedules collapse to a
// single equivalence class.
func (m *Machine) UniformPairs() bool {
	if !m.HomogeneousClasses() {
		return false
	}
	t := m.placement.Topology
	if t.NodesPerGroup > 0 && t.Nodes > t.NodesPerGroup {
		// A grouped network has both intra- and cross-group pairs, so
		// off-diagonal classes differ even one rank per node.
		return false
	}
	if t.CoresPerNode() == 1 {
		return true
	}
	return m.placement.Policy == topology.RoundRobin && m.Procs() <= t.Nodes
}

// PairTerm returns the multiplicative decomposition of the pair (i, j)'s
// parameters: every pairwise parameter of the machine equals its distance
// class's link column entry times the returned factor, bit for bit. For self
// pairs the factor is 1 (the self column already carries the exact values:
// zero latency/gap/beta and the unscaled invocation overhead, matching the
// special-cased self paths of the profile formulas). Pair and the four single
// accessors are built on it. The factor and class are invariants of (seed,
// spread, placement): machines that TermCompatible accepts classify and
// weight every pair identically.
func (m *Machine) PairTerm(i, j int) (factor float64, class uint8) {
	d := m.placement.Distance(i, j)
	if d == topology.DistanceSelf {
		return 1, uint8(d)
	}
	return m.profile.pairFactor(i, j), uint8(d)
}

// TermCompatible reports whether o shares this machine's PairTerm
// decomposition: same placement (and hence distance classes and NICs) and
// same heterogeneity stream (seed, spread) and noise magnitude. Machines that
// differ only in their link columns (scaled profiles) or run seed are
// compatible — they have the same rank-equivalence classes, which is what
// lets a sched.SweepEvaluator carry its memoized symmetry partitions across
// the points of a scale or seed sweep.
func (m *Machine) TermCompatible(o any) bool {
	om, ok := o.(*Machine)
	if !ok {
		return false
	}
	if om == m {
		return true
	}
	pa, pb := m.placement, om.placement
	if pa != pb && (pa.Topology != pb.Topology || pa.Policy != pb.Policy || pa.Ranks() != pb.Ranks()) {
		return false
	}
	a, b := m.profile, om.profile
	return a.Seed == b.Seed && a.HeteroSpread == b.HeteroSpread && a.NoiseRel == b.NoiseRel
}

// Noise returns a multiplicative jitter factor (>= 1) for the seq-th noisy
// event observed by rank i. The stream is a deterministic function of the
// machine's run seed, the rank and the sequence number, so simulations are
// reproducible regardless of goroutine scheduling. The factor follows a
// half-normal-like shape: most events see almost no jitter, a few see spikes
// of a few NoiseRel. A machine handed a memo (WithDraws, WithTurnDraws) looks
// the same value up. Runs do not call it: they resolve the stream once
// (NoiseStream).
func (m *Machine) Noise(i int, seq uint64) float64 {
	rel, s := m.NoiseStream()
	if s == nil {
		return 1
	}
	z, _, _ := s.Draw(i, seq)
	return 1 + rel*z
}

// NoiseStream resolves the machine's noise for a run's kernel
// (loggp.Resolve): the scale NoiseRel of its draws and the stream that
// looks them up in the memo the machine was handed (WithDraws,
// WithTurnDraws) or computes them; 0 and nil on a noise-free machine.
// Noise(i, seq) is 1 + rel·z for the stream's z of (i, seq), bit for bit.
func (m *Machine) NoiseStream() (rel float64, s loggp.Stream) {
	switch rel = m.profile.NoiseRel; {
	case rel <= 0:
		return 0, nil
	case m.turn != nil:
		return rel, m.turn
	case m.draws != nil:
		return rel, m.draws
	}
	return rel, (*seedStream)(&m.runSeed)
}

// seedStream is the stream of a machine that reads no memo: every draw
// computed from the run seed it points at.
type seedStream int64

func (s *seedStream) Draw(rank int, seq uint64) (float64, *[loggp.WindowLen]float64, uint64) {
	return drawZ(int64(*s), rank, seq), nil, 0
}

// drawZ is the one text of a noise draw: the half-normal excess z >= 0 of a
// rank's seq-th noisy event under a run seed, before Noise scales it by NoiseRel.
func drawZ(seed int64, rank int, seq uint64) float64 {
	h := hash64(uint64(seed)*0x9e3779b97f4a7c15 ^ (uint64(rank)+1)*0xff51afd7ed558ccd ^ (seq+1)*0xc4ceb9fe1a85ec53)
	u1 := (float64(h>>11) + 0.5) / float64(1<<53)
	h2 := hash64(h ^ 0x2545f4914f6cdd1d)
	u2 := (float64(h2>>11) + 0.5) / float64(1<<53)
	// Box-Muller; take the absolute value for a half-normal excess.
	return math.Abs(math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2))
}

// KernelTime returns the ground-truth time for rank r to apply the kernel
// once to n elements, without noise.
func (m *Machine) KernelTime(rank int, k kernels.Kernel, n int) float64 {
	return m.profile.KernelTime(m.placement.NodeOf(rank), k, n)
}

// String describes the machine.
func (m *Machine) String() string {
	return fmt.Sprintf("%s, %d ranks (%s placement)", m.profile, m.Procs(), m.placement.Policy)
}
