package platform

import (
	"fmt"
	"math"

	"hbsp/internal/memmodel"
	"hbsp/internal/topology"
)

// The preset profiles below are the synthetic equivalents of the clusters the
// thesis benchmarks. Values are commodity-hardware orders of magnitude
// (gigabit Ethernet between nodes, shared-memory transfers inside a node);
// they are not calibrated against the original machines, which are
// unavailable — synthetic substitutes are derived from the thesis figures.

func gigabitLinks() map[topology.Distance]Link {
	return map[topology.Distance]Link{
		topology.DistanceSocket: {
			Latency:  0.45e-6,
			Gap:      0.10e-6,
			Beta:     1 / 5.0e9,
			Overhead: 0.30e-6,
		},
		topology.DistanceNode: {
			Latency:  0.90e-6,
			Gap:      0.15e-6,
			Beta:     1 / 3.0e9,
			Overhead: 0.40e-6,
		},
		topology.DistanceNetwork: {
			Latency:  28e-6,
			Gap:      12e-6,
			Beta:     1 / 110.0e6,
			Overhead: 1.2e-6,
		},
	}
}

func xeonCore() memmodel.Core {
	return memmodel.Core{
		Name:          "xeon-quad",
		ClockGHz:      2.5,
		FlopsPerCycle: 3,
		Memory: memmodel.Hierarchy{Levels: []memmodel.Level{
			{Name: "L1", CapacityBytes: 32 * 1024, BandwidthBytesPerSec: 40e9},
			{Name: "L2", CapacityBytes: 6 * 1024 * 1024, BandwidthBytesPerSec: 18e9},
			{Name: "DRAM", CapacityBytes: math.Inf(1), BandwidthBytesPerSec: 5.5e9},
		}},
	}
}

func opteronCore() memmodel.Core {
	return memmodel.Core{
		Name:          "opteron-hex",
		ClockGHz:      2.2,
		FlopsPerCycle: 4,
		Memory: memmodel.Hierarchy{Levels: []memmodel.Level{
			{Name: "L1", CapacityBytes: 64 * 1024, BandwidthBytesPerSec: 35e9},
			{Name: "L2", CapacityBytes: 512 * 1024, BandwidthBytesPerSec: 20e9},
			{Name: "L3", CapacityBytes: 6 * 1024 * 1024, BandwidthBytesPerSec: 12e9},
			{Name: "DRAM", CapacityBytes: math.Inf(1), BandwidthBytesPerSec: 7e9},
		}},
	}
}

func athlonCore() memmodel.Core {
	return memmodel.Core{
		Name:          "athlon-x2",
		ClockGHz:      2.0,
		FlopsPerCycle: 2,
		Memory: memmodel.Hierarchy{Levels: []memmodel.Level{
			{Name: "L1", CapacityBytes: 64 * 1024, BandwidthBytesPerSec: 16e9},
			{Name: "L2", CapacityBytes: 512 * 1024, BandwidthBytesPerSec: 8e9},
			{Name: "DRAM", CapacityBytes: math.Inf(1), BandwidthBytesPerSec: 3e9},
		}},
	}
}

// Xeon8x2x4 is the synthetic stand-in for the thesis' 8-node dual quad-core
// Xeon gigabit cluster (64 cores), the platform of Table 3.1 and Figs. 5.6–5.9.
func Xeon8x2x4() *Profile {
	return &Profile{
		Name:         "xeon-8x2x4",
		Topology:     topology.Topology{Nodes: 8, SocketsPerNode: 2, CoresPerSocket: 4},
		Policy:       topology.RoundRobin,
		Cores:        []memmodel.Core{xeonCore()},
		Links:        gigabitLinks(),
		SelfOverhead: 0.12e-6,
		HeteroSpread: 0.06,
		NoiseRel:     0.04,
		Seed:         1,
	}
}

// XeonCluster scales the Xeon8x2x4 node design to an arbitrary node count, so
// simulator benchmarks (benchmark/'s scale_direct workload,
// BenchmarkTotalExchange) can instantiate machines beyond the 64 cores of the
// thesis configuration — 256 nodes give scale_direct's P=2048 points. Link and
// core parameters are identical to Xeon8x2x4.
func XeonCluster(nodes int) *Profile {
	p := Xeon8x2x4()
	p.Name = fmt.Sprintf("xeon-%dx2x4", nodes)
	p.Topology.Nodes = nodes
	return p
}

// XeonClusterMachine instantiates a noise-free machine with the requested
// rank count on the scaled Xeon cluster. It is the shared platform of the
// simulator benchmark harnesses (benchmark/ and the repository-level
// bench_test.go), which must measure identical machines for their numbers to
// be comparable.
func XeonClusterMachine(procs int) (*Machine, error) {
	nodes := (procs + 7) / 8
	if nodes < 1 {
		nodes = 1
	}
	p := XeonCluster(nodes)
	p.NoiseRel = 0
	return p.Machine(procs)
}

// FlatCluster is a homogeneous one-core-per-node cluster (nodes × 1 × 1) with
// the Xeon link and core parameters but zero heterogeneity spread and zero
// noise: every off-diagonal pair is an identical network-class link, the
// machine shape on which rank-symmetric schedules collapse to a single
// equivalence class. This is the platform of the large-P symmetry benchmarks
// and the cross-engine collapse goldens.
func FlatCluster(nodes int) *Profile {
	p := Xeon8x2x4()
	p.Name = fmt.Sprintf("flat-%dx1x1", nodes)
	p.Topology = topology.Topology{Nodes: nodes, SocketsPerNode: 1, CoresPerSocket: 1}
	p.HeteroSpread = 0
	p.NoiseRel = 0
	return p
}

// FlatClusterMachine instantiates the flat cluster with one rank per node.
// Machines are O(P) at every size, so P=1M stays within memory budgets.
func FlatClusterMachine(procs int) (*Machine, error) {
	nodes := procs
	if nodes < 1 {
		nodes = 1
	}
	return FlatCluster(nodes).Machine(procs)
}

// FatTreeCluster models a two-tier fat-tree of single-core nodes: pods of
// nodesPerPod nodes behind edge switches, cross-pod traffic through the core
// tier. Intra-pod pairs keep the gigabit network-class parameters; cross-pod
// pairs pay an extra core-switch hop and share uplink bandwidth (synthetic
// values in commodity orders of magnitude, like the rest of the presets).
// Heterogeneity spread and noise are zero, so the profile is
// collapse-eligible: symmetric schedules refine to a few classes split along
// the pod structure rather than one per rank.
func FatTreeCluster(pods, nodesPerPod int) *Profile {
	links := gigabitLinks()
	links[topology.DistanceGroup] = Link{
		Latency:  42e-6,
		Gap:      12e-6,
		Beta:     1 / 95.0e6,
		Overhead: 1.2e-6,
	}
	return &Profile{
		Name: fmt.Sprintf("fattree-%dp%d", pods, nodesPerPod),
		Topology: topology.Topology{
			Nodes: pods * nodesPerPod, SocketsPerNode: 1, CoresPerSocket: 1,
			NodesPerGroup: nodesPerPod,
		},
		Policy:       topology.Block,
		Cores:        []memmodel.Core{xeonCore()},
		Links:        links,
		SelfOverhead: 0.12e-6,
		HeteroSpread: 0,
		NoiseRel:     0,
		Seed:         6,
	}
}

// DragonflyCluster models a dragonfly of single-core nodes: groups of
// nodesPerGroup nodes with all-to-all local links, connected by long global
// links. Intra-group pairs keep the gigabit network-class parameters;
// cross-group pairs pay the global-link latency and its narrower bandwidth
// (synthetic values, as above). Zero spread and noise keep it
// collapse-eligible.
func DragonflyCluster(groups, nodesPerGroup int) *Profile {
	links := gigabitLinks()
	links[topology.DistanceGroup] = Link{
		Latency:  55e-6,
		Gap:      13e-6,
		Beta:     1 / 85.0e6,
		Overhead: 1.2e-6,
	}
	return &Profile{
		Name: fmt.Sprintf("dragonfly-%dg%d", groups, nodesPerGroup),
		Topology: topology.Topology{
			Nodes: groups * nodesPerGroup, SocketsPerNode: 1, CoresPerSocket: 1,
			NodesPerGroup: nodesPerGroup,
		},
		Policy:       topology.Block,
		Cores:        []memmodel.Core{xeonCore()},
		Links:        links,
		SelfOverhead: 0.12e-6,
		HeteroSpread: 0,
		NoiseRel:     0,
		Seed:         7,
	}
}

// XeonClusterHomogeneousMachine is XeonClusterMachine with the heterogeneity
// spread also zeroed: multiple ranks per node, so distance classes still
// differ pair to pair, but parameters are a pure function of the class. On
// this machine symmetric schedules collapse to a few classes rather than
// one — the multi-class test bed of the structural refinement.
func XeonClusterHomogeneousMachine(procs int) (*Machine, error) {
	nodes := (procs + 7) / 8
	if nodes < 1 {
		nodes = 1
	}
	p := XeonCluster(nodes)
	p.NoiseRel = 0
	p.HeteroSpread = 0
	return p.Machine(procs)
}

// Opteron12x2x6 is the synthetic stand-in for the 12-node dual hexa-core
// Opteron cluster (144 cores) of Figs. 5.10–5.13.
func Opteron12x2x6() *Profile {
	links := gigabitLinks()
	// Slightly slower network stack on this cluster, as the thesis' larger
	// configuration also shows higher absolute barrier cost.
	l := links[topology.DistanceNetwork]
	l.Latency = 33e-6
	l.Gap = 13e-6
	links[topology.DistanceNetwork] = l
	return &Profile{
		Name:         "opteron-12x2x6",
		Topology:     topology.Topology{Nodes: 12, SocketsPerNode: 2, CoresPerSocket: 6},
		Policy:       topology.RoundRobin,
		Cores:        []memmodel.Core{opteronCore()},
		Links:        links,
		SelfOverhead: 0.14e-6,
		HeteroSpread: 0.07,
		NoiseRel:     0.05,
		Seed:         2,
	}
}

// Opteron10x2x6 is the 10-node configuration used for the 115-process SSS
// clustering of Table 7.2.
func Opteron10x2x6() *Profile {
	p := Opteron12x2x6()
	p.Name = "opteron-10x2x6"
	p.Topology.Nodes = 10
	p.Seed = 3
	return p
}

// AthlonX2 is the single dual-core node used for the L1 BLAS measurements of
// Figs. 4.5/4.6.
func AthlonX2() *Profile {
	return &Profile{
		Name:         "athlon-x2",
		Topology:     topology.Topology{Nodes: 1, SocketsPerNode: 1, CoresPerSocket: 2},
		Policy:       topology.Block,
		Cores:        []memmodel.Core{athlonCore()},
		Links:        gigabitLinks(),
		SelfOverhead: 0.10e-6,
		HeteroSpread: 0.02,
		NoiseRel:     0.02,
		Seed:         4,
	}
}

// HeteroDemo is a small cluster whose nodes mix two core designs (fast Xeons
// and slower Opterons). It exercises the heterogeneous-computation paths of
// the framework: identical work assigned to all ranks yields visibly
// imbalanced superstep times.
func HeteroDemo() *Profile {
	fast := xeonCore()
	slow := opteronCore()
	slow.ClockGHz = 1.6
	return &Profile{
		Name:         "hetero-demo-4x1x4",
		Topology:     topology.Topology{Nodes: 4, SocketsPerNode: 1, CoresPerSocket: 4},
		Policy:       topology.Block,
		Cores:        []memmodel.Core{fast, slow, fast, slow},
		Links:        gigabitLinks(),
		SelfOverhead: 0.12e-6,
		HeteroSpread: 0.05,
		NoiseRel:     0.03,
		Seed:         5,
	}
}

// Presets returns every built-in profile, keyed by name.
func Presets() map[string]*Profile {
	out := map[string]*Profile{}
	for _, p := range []*Profile{Xeon8x2x4(), Opteron12x2x6(), Opteron10x2x6(), AthlonX2(), HeteroDemo(),
		FatTreeCluster(4, 4), DragonflyCluster(4, 4)} {
		out[p.Name] = p
	}
	return out
}
