// Package topology describes the hierarchical structure of the commodity SMP
// clusters the thesis models: a number of compute nodes, each with a number
// of processor sockets, each with a number of cores. It also implements the
// process-placement (affinity) schemes the thesis relies on to keep locality
// under experimental control: round-robin placement across nodes (the test
// clusters' scheduler default, responsible for the odd/even oscillations of
// Fig. 5.6) and block placement (fill one node before the next).
package topology

import (
	"errors"
	"fmt"
	"math"
)

// Topology is a three-level cluster description: nodes × sockets × cores.
// Setting NodesPerGroup adds an optional fourth level above the nodes — the
// pods of a fat-tree or the groups of a dragonfly — whose cross-group traffic
// forms its own distance class (DistanceGroup).
type Topology struct {
	// Nodes is the number of compute nodes in the cluster.
	Nodes int
	// SocketsPerNode is the number of processor sockets per node.
	SocketsPerNode int
	// CoresPerSocket is the number of cores per socket.
	CoresPerSocket int
	// NodesPerGroup partitions consecutive nodes into switch groups (fat-tree
	// pods, dragonfly groups): nodes n and m share a group iff
	// n/NodesPerGroup == m/NodesPerGroup. Zero means a flat network — every
	// inter-node pair is DistanceNetwork and no DistanceGroup class exists.
	NodesPerGroup int
}

// New returns a validated topology.
func New(nodes, socketsPerNode, coresPerSocket int) (Topology, error) {
	t := Topology{Nodes: nodes, SocketsPerNode: socketsPerNode, CoresPerSocket: coresPerSocket}
	if err := t.Validate(); err != nil {
		return Topology{}, err
	}
	return t, nil
}

// Validate reports whether every level has at least one element.
func (t Topology) Validate() error {
	if t.Nodes < 1 || t.SocketsPerNode < 1 || t.CoresPerSocket < 1 {
		return fmt.Errorf("topology: all levels must be >= 1, got %dx%dx%d",
			t.Nodes, t.SocketsPerNode, t.CoresPerSocket)
	}
	if t.NodesPerGroup < 0 {
		return fmt.Errorf("topology: NodesPerGroup must be >= 0, got %d", t.NodesPerGroup)
	}
	return nil
}

// GroupOf returns the switch group of a node (0 when the network is flat).
func (t Topology) GroupOf(node int) int {
	if t.NodesPerGroup <= 0 {
		return 0
	}
	return node / t.NodesPerGroup
}

// CoresPerNode returns the number of cores in one node.
func (t Topology) CoresPerNode() int { return t.SocketsPerNode * t.CoresPerSocket }

// TotalCores returns the number of cores in the whole cluster.
func (t Topology) TotalCores() int { return t.Nodes * t.CoresPerNode() }

// String renders the topology in the thesis' NxSxC shorthand (e.g. "8x2x4"),
// with a "/gG" group suffix when the network is grouped.
func (t Topology) String() string {
	if t.NodesPerGroup > 0 {
		return fmt.Sprintf("%dx%dx%d/g%d", t.Nodes, t.SocketsPerNode, t.CoresPerSocket, t.NodesPerGroup)
	}
	return fmt.Sprintf("%dx%dx%d", t.Nodes, t.SocketsPerNode, t.CoresPerSocket)
}

// CoreID identifies a physical core inside a topology.
type CoreID struct {
	Node   int
	Socket int
	Core   int
}

// Distance classifies the topological distance between two placed processes.
// It is the independent variable of the heterogeneous latency, overhead and
// bandwidth matrices.
type Distance int

const (
	// DistanceSelf is a process communicating with itself (the invocation
	// overhead case, O_ii in the thesis notation).
	DistanceSelf Distance = iota
	// DistanceSocket is communication between cores on the same socket.
	DistanceSocket
	// DistanceNode is communication between sockets of the same node.
	DistanceNode
	// DistanceNetwork is communication between different nodes of the same
	// switch group (or any two nodes of a flat network).
	DistanceNetwork
	// DistanceGroup is communication between nodes of different switch groups
	// — across fat-tree core switches or dragonfly global links. It only
	// occurs on topologies with NodesPerGroup set.
	DistanceGroup
)

// String names the distance class.
func (d Distance) String() string {
	switch d {
	case DistanceSelf:
		return "self"
	case DistanceSocket:
		return "socket"
	case DistanceNode:
		return "node"
	case DistanceNetwork:
		return "network"
	case DistanceGroup:
		return "group"
	default:
		return fmt.Sprintf("Distance(%d)", int(d))
	}
}

// PlacementPolicy selects how MPI-style ranks are mapped onto cores.
type PlacementPolicy int

const (
	// RoundRobin distributes consecutive ranks over consecutive nodes, the
	// default behaviour of the thesis' cluster scheduler. Within a node,
	// ranks take consecutive core indices in arrival order (the sorted-rank
	// affinity scheme of Section 5.2).
	RoundRobin PlacementPolicy = iota
	// Block fills each node completely before moving to the next.
	Block
)

// String names the placement policy.
func (p PlacementPolicy) String() string {
	switch p {
	case RoundRobin:
		return "round-robin"
	case Block:
		return "block"
	default:
		return fmt.Sprintf("PlacementPolicy(%d)", int(p))
	}
}

// ErrTooManyRanks is returned when a placement requests more processes than
// the topology has cores.
var ErrTooManyRanks = errors.New("topology: more ranks than cores")

// Placement maps ranks 0..P-1 onto cores of a topology.
type Placement struct {
	Topology Topology
	Policy   PlacementPolicy
	seats    []seat
}

// seat is one rank's place as Place computes it once: node, the node's switch
// group, socket and core. No index of a placed rank exceeds the rank, so int32
// holds them in 16 bytes (CoreID takes 24).
type seat struct{ node, group, socket, core int32 }

// Place computes the placement of p ranks onto the topology under the given
// policy. Placement is one-to-one (no oversubscription), matching the thesis'
// restriction to one process per physical core.
func Place(t Topology, p int, policy PlacementPolicy) (*Placement, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if p < 1 {
		return nil, fmt.Errorf("topology: need at least one rank, got %d", p)
	}
	if cores := min(t.TotalCores(), math.MaxInt32); p > cores { // a seat's int32 fields cap the usable cores
		return nil, fmt.Errorf("%w: %d ranks on %d cores", ErrTooManyRanks, p, cores)
	}
	seats := make([]seat, p)
	at := func(rank, node, within int) {
		seats[rank] = seat{node: int32(node), group: int32(t.GroupOf(node)),
			socket: int32(within / t.CoresPerSocket), core: int32(within % t.CoresPerSocket)}
	}
	switch policy {
	case Block:
		for rank := 0; rank < p; rank++ {
			at(rank, rank/t.CoresPerNode(), rank%t.CoresPerNode())
		}
	case RoundRobin:
		// Ranks are dealt to nodes round-robin; the n-th rank landing on a
		// node occupies core index n within that node (sorted-rank affinity).
		// Only the first min(p, Nodes) nodes receive a rank, so the counters
		// are sized by the ranks placed, not by the machine.
		perNodeCount := make([]int, min(p, t.Nodes))
		for rank := 0; rank < p; rank++ {
			node := rank % t.Nodes
			within := perNodeCount[node]
			perNodeCount[node]++
			if within >= t.CoresPerNode() {
				return nil, fmt.Errorf("%w: node %d oversubscribed", ErrTooManyRanks, node)
			}
			at(rank, node, within)
		}
	default:
		return nil, fmt.Errorf("topology: unknown placement policy %v", policy)
	}
	return &Placement{Topology: t, Policy: policy, seats: seats}, nil
}

// Ranks returns the number of placed ranks.
func (pl *Placement) Ranks() int { return len(pl.seats) }

// Core returns the core a rank is pinned to.
func (pl *Placement) Core(rank int) CoreID {
	s := &pl.seats[rank]
	return CoreID{Node: int(s.node), Socket: int(s.socket), Core: int(s.core)}
}

// Distance returns the distance class between two ranks: self, same socket,
// same node, or different nodes — promoted to DistanceGroup when the nodes
// sit in different switch groups of a grouped topology. Placement is
// one-to-one, so only a == b shares a core.
func (pl *Placement) Distance(a, b int) Distance {
	x, y := &pl.seats[a], &pl.seats[b]
	switch {
	case a == b:
		return DistanceSelf
	case x.node != y.node:
		if x.group != y.group {
			return DistanceGroup
		}
		return DistanceNetwork
	case x.socket != y.socket:
		return DistanceNode
	default:
		return DistanceSocket
	}
}

// NodeOf returns the node index hosting a rank.
func (pl *Placement) NodeOf(rank int) int { return int(pl.seats[rank].node) }
