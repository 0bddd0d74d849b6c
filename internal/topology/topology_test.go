package topology

import (
	"testing"
	"testing/quick"
)

func TestTopologyCounts(t *testing.T) {
	top, err := New(8, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if top.CoresPerNode() != 8 || top.TotalCores() != 64 {
		t.Fatalf("CoresPerNode=%d TotalCores=%d", top.CoresPerNode(), top.TotalCores())
	}
	if top.String() != "8x2x4" {
		t.Fatalf("String() = %q", top.String())
	}
}

func TestTopologyValidate(t *testing.T) {
	if _, err := New(0, 2, 4); err == nil {
		t.Fatal("zero nodes should fail")
	}
	if _, err := New(2, -1, 4); err == nil {
		t.Fatal("negative sockets should fail")
	}
}

// DistanceBetween classifies the distance between two cores: the core-level
// rule Placement.Distance applies to its per-rank records, kept here as the
// oracle its tests compare against.
func DistanceBetween(a, b CoreID) Distance {
	switch {
	case a == b:
		return DistanceSelf
	case a.Node != b.Node:
		return DistanceNetwork
	case a.Socket != b.Socket:
		return DistanceNode
	default:
		return DistanceSocket
	}
}

func TestDistanceBetween(t *testing.T) {
	a := CoreID{Node: 0, Socket: 0, Core: 0}
	if DistanceBetween(a, a) != DistanceSelf {
		t.Fatal("self distance wrong")
	}
	if DistanceBetween(a, CoreID{0, 0, 1}) != DistanceSocket {
		t.Fatal("socket distance wrong")
	}
	if DistanceBetween(a, CoreID{0, 1, 0}) != DistanceNode {
		t.Fatal("node distance wrong")
	}
	if DistanceBetween(a, CoreID{1, 0, 0}) != DistanceNetwork {
		t.Fatal("network distance wrong")
	}
}

func TestDistanceString(t *testing.T) {
	names := map[Distance]string{
		DistanceSelf:    "self",
		DistanceSocket:  "socket",
		DistanceNode:    "node",
		DistanceNetwork: "network",
	}
	for d, want := range names {
		if d.String() != want {
			t.Errorf("%d.String() = %q, want %q", d, d.String(), want)
		}
	}
	if Distance(99).String() == "" {
		t.Error("unknown distance should still render")
	}
}

func TestPlacementBlock(t *testing.T) {
	top, _ := New(2, 2, 2)
	pl, err := Place(top, 8, Block)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Ranks() != 8 {
		t.Fatalf("Ranks = %d", pl.Ranks())
	}
	// Block: ranks 0..3 on node 0, 4..7 on node 1.
	for r := 0; r < 4; r++ {
		if pl.NodeOf(r) != 0 {
			t.Fatalf("rank %d on node %d, want 0", r, pl.NodeOf(r))
		}
	}
	for r := 4; r < 8; r++ {
		if pl.NodeOf(r) != 1 {
			t.Fatalf("rank %d on node %d, want 1", r, pl.NodeOf(r))
		}
	}
	if pl.Distance(0, 1) != DistanceSocket {
		t.Fatalf("ranks 0,1 distance %v", pl.Distance(0, 1))
	}
	if pl.Distance(0, 2) != DistanceNode {
		t.Fatalf("ranks 0,2 distance %v", pl.Distance(0, 2))
	}
	if pl.Distance(0, 4) != DistanceNetwork {
		t.Fatalf("ranks 0,4 distance %v", pl.Distance(0, 4))
	}
}

func TestPlacementRoundRobin(t *testing.T) {
	top, _ := New(4, 2, 4)
	pl, err := Place(top, 8, RoundRobin)
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin over 4 nodes: rank r lands on node r mod 4.
	for r := 0; r < 8; r++ {
		if pl.NodeOf(r) != r%4 {
			t.Fatalf("rank %d on node %d, want %d", r, pl.NodeOf(r), r%4)
		}
	}
	// Ranks 0 and 4 are the first and second arrivals on node 0, so they
	// share a socket (cores 0 and 1).
	if pl.Distance(0, 4) != DistanceSocket {
		t.Fatalf("ranks 0,4 distance %v, want socket", pl.Distance(0, 4))
	}
	if !pl.SameNode(0, 4) || pl.SameNode(0, 1) {
		t.Fatal("SameNode wrong")
	}
}

// TestPlacementCostsRanksNotNodes: placing a few ranks on a machine of
// billions of nodes (hbspd takes profile.nodes from the request) allocates
// for the ranks; sized by the nodes, the counters would be 24 GB here.
func TestPlacementCostsRanksNotNodes(t *testing.T) {
	top, err := New(3_000_000_000, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, policy := range []PlacementPolicy{Block, RoundRobin} {
		pl, err := Place(top, 8, policy)
		if err != nil {
			t.Fatal(err)
		}
		if pl.NodeOf(7) != 7 {
			t.Fatalf("%v: rank 7 on node %d, want 7", policy, pl.NodeOf(7))
		}
	}
}

func TestPlacementErrors(t *testing.T) {
	top, _ := New(2, 1, 2)
	if _, err := Place(top, 5, Block); err == nil {
		t.Fatal("oversubscription should fail")
	}
	if _, err := Place(top, 0, Block); err == nil {
		t.Fatal("zero ranks should fail")
	}
	if _, err := Place(Topology{}, 1, Block); err == nil {
		t.Fatal("invalid topology should fail")
	}
	if _, err := Place(top, 2, PlacementPolicy(42)); err == nil {
		t.Fatal("unknown policy should fail")
	}
}

func TestRanksOnNodeAndNodesUsed(t *testing.T) {
	top, _ := New(3, 1, 2)
	pl, _ := Place(top, 5, RoundRobin)
	if got := pl.NodesUsed(); got != 3 {
		t.Fatalf("NodesUsed = %d", got)
	}
	on0 := pl.RanksOnNode(0)
	if len(on0) != 2 || on0[0] != 0 || on0[1] != 3 {
		t.Fatalf("RanksOnNode(0) = %v", on0)
	}
	blk, _ := Place(top, 2, Block)
	if blk.NodesUsed() != 1 {
		t.Fatalf("block NodesUsed = %d", blk.NodesUsed())
	}
}

func TestCorePanicsOnBadRank(t *testing.T) {
	top, _ := New(1, 1, 2)
	pl, _ := Place(top, 2, Block)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	pl.Core(2)
}

func TestPolicyString(t *testing.T) {
	if RoundRobin.String() != "round-robin" || Block.String() != "block" {
		t.Fatal("policy names wrong")
	}
	if PlacementPolicy(7).String() == "" {
		t.Fatal("unknown policy should render")
	}
}

// Property: every placement is one-to-one — no two ranks share a core — and
// distances are symmetric.
func TestPlacementInjectiveProperty(t *testing.T) {
	f := func(nodesRaw, socketsRaw, coresRaw, pRaw uint8, rr bool) bool {
		nodes := int(nodesRaw%4) + 1
		sockets := int(socketsRaw%3) + 1
		cores := int(coresRaw%4) + 1
		top, err := New(nodes, sockets, cores)
		if err != nil {
			return false
		}
		p := int(pRaw)%top.TotalCores() + 1
		policy := Block
		if rr {
			policy = RoundRobin
		}
		pl, err := Place(top, p, policy)
		if err != nil {
			return false
		}
		seen := make(map[CoreID]bool)
		for r := 0; r < p; r++ {
			c := pl.Core(r)
			if seen[c] {
				return false
			}
			seen[c] = true
			if c.Node >= nodes || c.Socket >= sockets || c.Core >= cores {
				return false
			}
		}
		for a := 0; a < p; a++ {
			for b := 0; b < p; b++ {
				if pl.Distance(a, b) != pl.Distance(b, a) || pl.Distance(a, b) != DistanceBetween(pl.Core(a), pl.Core(b)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
