// Package cluster is the public surface for describing and instantiating
// simulated platforms: hierarchical topologies (nodes × sockets × cores),
// per-node core designs with memory hierarchies, per-distance-class link
// parameters, and the preset profiles standing in for the thesis' physical
// clusters. A Profile plus a process count yields a Machine — the
// ground-truth pairwise parameters frozen for one placement — which
// is what hbsp.New and the sim, bsp and mpi run-times execute against.
package cluster

import (
	"hbsp/internal/memmodel"
	"hbsp/internal/platform"
	"hbsp/internal/topology"
)

// Profile is a complete synthetic platform description; Validate checks it
// for structural consistency (hbsp.New does so automatically).
type Profile = platform.Profile

// Machine is a profile instantiated for a process count: pairwise parameters
// frozen for one placement plus a deterministic noise stream. It satisfies
// sim.Machine and bsp.Machine.
type Machine = platform.Machine

// Link holds the communication parameters of one topological distance class.
type Link = platform.Link

// Topology is the node/socket/core structure of a platform.
type Topology = topology.Topology

// Placement maps ranks onto cores of a topology.
type Placement = topology.Placement

// PlacementPolicy selects how ranks are mapped onto cores.
type PlacementPolicy = topology.PlacementPolicy

// Placement policies.
const (
	RoundRobin = topology.RoundRobin
	Block      = topology.Block
)

// Distance classifies the topological distance between two placed ranks.
type Distance = topology.Distance

// Distance classes, from a process to itself out to the network and across
// switch groups.
const (
	DistanceSelf    = topology.DistanceSelf
	DistanceSocket  = topology.DistanceSocket
	DistanceNode    = topology.DistanceNode
	DistanceNetwork = topology.DistanceNetwork
	// DistanceGroup is communication between nodes of different switch
	// groups (fat-tree pods, dragonfly groups); it only occurs on topologies
	// with NodesPerGroup set.
	DistanceGroup = topology.DistanceGroup
)

// Core is a per-node core design; Hierarchy and Level describe its memory
// system, which the kernel rate model evaluates.
type (
	Core      = memmodel.Core
	Hierarchy = memmodel.Hierarchy
	Level     = memmodel.Level
)

// NewTopology builds a validated topology.
func NewTopology(nodes, socketsPerNode, coresPerSocket int) (Topology, error) {
	return topology.New(nodes, socketsPerNode, coresPerSocket)
}

// Xeon8x2x4 is the synthetic stand-in for the thesis' 8-node dual quad-core
// Xeon gigabit cluster (64 cores).
func Xeon8x2x4() *Profile { return platform.Xeon8x2x4() }

// XeonCluster scales the Xeon8x2x4 node design to an arbitrary node count.
func XeonCluster(nodes int) *Profile { return platform.XeonCluster(nodes) }

// XeonClusterMachine instantiates a noise-free machine with the requested
// rank count on the scaled Xeon cluster.
func XeonClusterMachine(procs int) (*Machine, error) { return platform.XeonClusterMachine(procs) }

// XeonClusterHomogeneousMachine is XeonClusterMachine with the per-pair
// heterogeneity spread and the noise model switched off: every pair at the
// same topological distance gets identical parameters, which is what lets the
// direct evaluator collapse rank-equivalence classes.
func XeonClusterHomogeneousMachine(procs int) (*Machine, error) {
	return platform.XeonClusterHomogeneousMachine(procs)
}

// FlatCluster is a one-core-per-node profile with N identical nodes: every
// pair of distinct ranks sits at network distance with identical parameters,
// the ideal symmetric platform for collapse-scaling studies.
func FlatCluster(nodes int) *Profile { return platform.FlatCluster(nodes) }

// FlatClusterMachine instantiates FlatCluster with one rank per node.
func FlatClusterMachine(procs int) (*Machine, error) { return platform.FlatClusterMachine(procs) }

// FatTreeCluster models a two-tier fat-tree of single-core nodes: pods of
// nodesPerPod nodes behind edge switches, with cross-pod traffic paying an
// extra core-switch hop (DistanceGroup link class). Collapse-eligible: zero
// heterogeneity spread and zero noise.
func FatTreeCluster(pods, nodesPerPod int) *Profile {
	return platform.FatTreeCluster(pods, nodesPerPod)
}

// DragonflyCluster models a dragonfly of single-core nodes: groups with
// all-to-all local links, cross-group traffic over long global links
// (DistanceGroup link class). Collapse-eligible like FatTreeCluster.
func DragonflyCluster(groups, nodesPerGroup int) *Profile {
	return platform.DragonflyCluster(groups, nodesPerGroup)
}

// Opteron12x2x6 is the synthetic stand-in for the 12-node dual hexa-core
// Opteron cluster (144 cores).
func Opteron12x2x6() *Profile { return platform.Opteron12x2x6() }

// Opteron10x2x6 is the 10-node Opteron configuration of the 115-process SSS
// clustering experiment.
func Opteron10x2x6() *Profile { return platform.Opteron10x2x6() }

// AthlonX2 is the single dual-core node used for the L1 BLAS measurements.
func AthlonX2() *Profile { return platform.AthlonX2() }

// HeteroDemo is a small cluster mixing two core designs, for exercising the
// heterogeneous-computation paths.
func HeteroDemo() *Profile { return platform.HeteroDemo() }

// Presets returns every built-in profile, keyed by name.
func Presets() map[string]*Profile { return platform.Presets() }
