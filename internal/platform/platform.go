// Package platform defines the synthetic hardware profiles that stand in for
// the thesis' physical test clusters. A Profile combines a hierarchical
// topology (nodes × sockets × cores), per-node core designs with their memory
// hierarchies, and per-distance-class communication link parameters
// (latency, per-message gap, inverse bandwidth, per-request software
// overhead). From a profile and a process count, the package derives the
// ground-truth pairwise parameter matrices that both the virtual-time
// simulator (the "hardware") and the benchmark procedures (the "measurement")
// consume.
//
// The thesis measured two real clusters — 8 nodes of dual quad-core Xeons and
// 12 nodes of dual hexa-core Opterons on gigabit Ethernet — which are not
// available here; the presets in this package are synthetic equivalents with
// the same hierarchy and realistic commodity-cluster orders of magnitude, as
// recorded in the preset definitions (presets.go).
package platform

import (
	"fmt"
	"math"

	"hbsp/internal/kernels"
	"hbsp/internal/matrix"
	"hbsp/internal/memmodel"
	"hbsp/internal/topology"
)

// Link holds the communication parameters of one topological distance class.
// All times are in seconds, Beta in seconds per byte.
type Link struct {
	// Latency is the end-to-end delay of a minimal message (the L_ij term).
	Latency float64
	// Gap is the per-message occupancy of the network interface, the LogGP
	// "g" term; it drives contention when many messages share a NIC.
	Gap float64
	// Beta is the inverse bandwidth in seconds per byte.
	Beta float64
	// Overhead is the per-request software overhead paid by the sending CPU
	// when initiating a transfer to this distance class (the O_ij term).
	Overhead float64
}

// Profile is a complete synthetic platform description.
type Profile struct {
	// Name identifies the profile ("xeon-8x2x4", ...).
	Name string
	// Topology is the node/socket/core structure.
	Topology topology.Topology
	// Policy is the default process placement policy.
	Policy topology.PlacementPolicy
	// Cores lists the core design per node. A single entry applies to every
	// node; otherwise the slice must have Topology.Nodes entries, which is
	// how heterogeneous-node clusters are described.
	Cores []memmodel.Core
	// Links maps each distance class to its link parameters. DistanceSelf
	// only uses the Overhead field.
	Links map[topology.Distance]Link
	// SelfOverhead is the cost of invoking a communication operation with an
	// empty request list (the O_ii invocation overhead).
	SelfOverhead float64
	// HeteroSpread is the relative, deterministic per-pair perturbation
	// applied to link parameters so that the pairwise matrices are not
	// perfectly uniform within a distance class (cable lengths, switch
	// ports, ...). 0.05 means ±5 %.
	HeteroSpread float64
	// NoiseRel is the relative magnitude of run-to-run noise applied by the
	// simulator and benchmark runs (operating-system jitter).
	NoiseRel float64
	// Seed makes every derived pseudo-random stream deterministic.
	Seed int64
}

// Validate checks the profile for structural consistency.
func (p *Profile) Validate() error {
	if err := p.Topology.Validate(); err != nil {
		return err
	}
	if len(p.Cores) != 1 && len(p.Cores) != p.Topology.Nodes {
		return fmt.Errorf("platform: %d core specs for %d nodes", len(p.Cores), p.Topology.Nodes)
	}
	for _, c := range p.Cores {
		if err := c.Memory.Validate(); err != nil {
			return fmt.Errorf("platform: core %q: %w", c.Name, err)
		}
		if c.PeakFlops() <= 0 {
			return fmt.Errorf("platform: core %q has non-positive peak", c.Name)
		}
	}
	required := []topology.Distance{topology.DistanceSocket, topology.DistanceNode, topology.DistanceNetwork}
	if t := p.Topology; t.NodesPerGroup > 0 && t.Nodes > t.NodesPerGroup {
		// A grouped topology with more than one group produces DistanceGroup
		// pairs, so the class must be parameterized.
		required = append(required, topology.DistanceGroup)
	} else if _, ok := p.Links[topology.DistanceGroup]; ok {
		// Conversely, on a topology that never produces DistanceGroup pairs
		// the class would be dead configuration — reject it rather than let a
		// misconfigured group link silently never apply.
		return fmt.Errorf("platform: DistanceGroup link parameters on an ungrouped topology")
	}
	for _, d := range required {
		l, ok := p.Links[d]
		if !ok {
			return fmt.Errorf("platform: missing link parameters for distance %v", d)
		}
		if l.Latency <= 0 || l.Beta < 0 || l.Gap < 0 || l.Overhead < 0 {
			return fmt.Errorf("platform: invalid link parameters for distance %v: %+v", d, l)
		}
	}
	if p.SelfOverhead <= 0 {
		return fmt.Errorf("platform: SelfOverhead must be positive")
	}
	if p.HeteroSpread < 0 || p.HeteroSpread >= 1 {
		return fmt.Errorf("platform: HeteroSpread %g out of [0,1)", p.HeteroSpread)
	}
	if p.NoiseRel < 0 {
		return fmt.Errorf("platform: NoiseRel must be non-negative")
	}
	return nil
}

// CoreForNode returns the core design of the given node.
func (p *Profile) CoreForNode(node int) memmodel.Core {
	if len(p.Cores) == 1 {
		return p.Cores[0]
	}
	return p.Cores[node]
}

// Place maps ranks onto the profile's topology with its default policy.
func (p *Profile) Place(ranks int) (*topology.Placement, error) {
	return topology.Place(p.Topology, ranks, p.Policy)
}

// PlaceWith maps ranks with an explicit policy (used by the placement
// ablation experiments).
func (p *Profile) PlaceWith(ranks int, policy topology.PlacementPolicy) (*topology.Placement, error) {
	return topology.Place(p.Topology, ranks, policy)
}

// pairFactor returns the deterministic heterogeneity factor for the pair
// (i, j), symmetric in its arguments and within ±HeteroSpread of 1.
func (p *Profile) pairFactor(i, j int) float64 {
	if p.HeteroSpread == 0 {
		return 1
	}
	a, b := i, j
	if a > b {
		a, b = b, a
	}
	h := hash64(uint64(p.Seed)*0x9e3779b97f4a7c15 + uint64(a)*0x100000001b3 + uint64(b) + 0x517cc1b727220a95)
	u := float64(h>>11) / float64(1<<53) // uniform in [0,1)
	return 1 + p.HeteroSpread*(2*u-1)
}

func hash64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// link returns the link parameters for the distance between two placed ranks.
func (p *Profile) link(pl *topology.Placement, i, j int) Link {
	d := pl.Distance(i, j)
	if d == topology.DistanceSelf {
		return Link{Latency: 0, Gap: 0, Beta: 0, Overhead: p.SelfOverhead}
	}
	return p.Links[d]
}

// Latency returns the ground-truth latency between ranks i and j.
func (p *Profile) Latency(pl *topology.Placement, i, j int) float64 {
	return p.link(pl, i, j).Latency * p.pairFactor(i, j)
}

// Overhead returns the ground-truth per-request overhead between i and j.
func (p *Profile) Overhead(pl *topology.Placement, i, j int) float64 {
	if i == j {
		return p.SelfOverhead
	}
	return p.link(pl, i, j).Overhead * p.pairFactor(i, j)
}

// Gap returns the per-message NIC occupancy between i and j.
func (p *Profile) Gap(pl *topology.Placement, i, j int) float64 {
	return p.link(pl, i, j).Gap * p.pairFactor(i, j)
}

// Beta returns the inverse bandwidth between i and j.
func (p *Profile) Beta(pl *topology.Placement, i, j int) float64 {
	return p.link(pl, i, j).Beta * p.pairFactor(i, j)
}

// LatencyMatrix returns the P×P ground-truth latency matrix for a placement.
func (p *Profile) LatencyMatrix(pl *topology.Placement) *matrix.Dense {
	return p.pairMatrix(pl, p.Latency)
}

// OverheadMatrix returns the P×P ground-truth per-request overhead matrix.
// The diagonal carries the invocation overhead O_ii.
func (p *Profile) OverheadMatrix(pl *topology.Placement) *matrix.Dense {
	return p.pairMatrix(pl, p.Overhead)
}

// BetaMatrix returns the P×P ground-truth inverse-bandwidth matrix.
func (p *Profile) BetaMatrix(pl *topology.Placement) *matrix.Dense {
	return p.pairMatrix(pl, p.Beta)
}

func (p *Profile) pairMatrix(pl *topology.Placement, f func(*topology.Placement, int, int) float64) *matrix.Dense {
	n := pl.Ranks()
	m := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			m.Set(i, j, f(pl, i, j))
		}
	}
	return m
}

// Scaled returns a copy of the profile with every link class' LogGP
// parameters multiplied by the given factors (SelfOverhead scales with ovh).
// The copy has its own Links map, so the source profile — possibly a shared
// preset — is never mutated. Seed, HeteroSpread and NoiseRel are unchanged,
// which makes machines of a profile and its scalings term-compatible
// (TermCompatible): a sweep over LogGP scalings keeps one evaluator and its
// memoized symmetry partitions instead of rebuilding them per point.
func (p *Profile) Scaled(lat, gap, beta, ovh float64) *Profile {
	c := *p
	c.Links = make(map[topology.Distance]Link, len(p.Links))
	for d, l := range p.Links {
		c.Links[d] = Link{
			Latency:  l.Latency * lat,
			Gap:      l.Gap * gap,
			Beta:     l.Beta * beta,
			Overhead: l.Overhead * ovh,
		}
	}
	c.SelfOverhead = p.SelfOverhead * ovh
	return &c
}

// KernelRate returns the sustainable rate, in flop/s, of the kernel on the
// core hosting the given node, for a working set of n elements.
func (p *Profile) KernelRate(node int, k kernels.Kernel, n int) float64 {
	core := p.CoreForNode(node)
	return core.Rate(k.Intensity(), k.FootprintBytes(n))
}

// KernelTime returns the ground-truth time to apply the kernel once to n
// elements on the core hosting the given node.
func (p *Profile) KernelTime(node int, k kernels.Kernel, n int) float64 {
	rate := p.KernelRate(node, k, n)
	if rate <= 0 {
		return math.Inf(1)
	}
	if k.FlopsPerElement == 0 {
		// Pure data-movement kernels are bandwidth bound.
		core := p.CoreForNode(node)
		bw := core.Memory.Bandwidth(k.FootprintBytes(n))
		return k.Bytes(n) / bw
	}
	return k.Flops(n) / rate
}

// SecondsPerElement returns the ground-truth per-element cost of a kernel on
// a node for a fixed per-application problem size n, the quantity the
// framework's cost matrices carry.
func (p *Profile) SecondsPerElement(node int, k kernels.Kernel, n int) float64 {
	if n <= 0 {
		return 0
	}
	return p.KernelTime(node, k, n) / float64(n)
}

// String returns the profile name and topology.
func (p *Profile) String() string {
	return fmt.Sprintf("%s (%s)", p.Name, p.Topology)
}
