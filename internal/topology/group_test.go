package topology

import "testing"

func TestGroupedTopology(t *testing.T) {
	top, err := New(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	top.NodesPerGroup = 4
	if err := top.Validate(); err != nil {
		t.Fatal(err)
	}
	for node, want := range []int{0, 0, 0, 0, 1, 1, 1, 1} {
		if got := top.GroupOf(node); got != want {
			t.Errorf("GroupOf(%d) = %d, want %d", node, got, want)
		}
	}
	if top.String() != "8x1x1/g4" {
		t.Errorf("String() = %q", top.String())
	}

	// Uneven groups: the last one holds the remainder.
	top.NodesPerGroup = 3
	if got := top.GroupOf(7); got != 2 {
		t.Errorf("GroupOf(7) with 3 nodes per group = %d, want 2", got)
	}

	// Flat topologies have one implicit group.
	flat, _ := New(8, 1, 1)
	if flat.GroupOf(7) != 0 {
		t.Errorf("flat topology: GroupOf(7)=%d", flat.GroupOf(7))
	}
	if flat.String() != "8x1x1" {
		t.Errorf("flat String() = %q", flat.String())
	}

	// Negative NodesPerGroup is rejected.
	bad, _ := New(8, 1, 1)
	bad.NodesPerGroup = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative NodesPerGroup validated")
	}
}

func TestDistanceGroupPromotion(t *testing.T) {
	top, err := New(8, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	top.NodesPerGroup = 4
	pl, err := Place(top, 8, Block)
	if err != nil {
		t.Fatal(err)
	}
	// Same group: plain network distance. Different groups: promoted.
	if d := pl.Distance(0, 3); d != DistanceNetwork {
		t.Errorf("intra-group distance = %v, want network", d)
	}
	if d := pl.Distance(0, 4); d != DistanceGroup {
		t.Errorf("cross-group distance = %v, want group", d)
	}
	if d := pl.Distance(7, 0); d != DistanceGroup {
		t.Errorf("cross-group distance (reversed) = %v, want group", d)
	}
	if d := pl.Distance(2, 2); d != DistanceSelf {
		t.Errorf("self distance = %v", d)
	}
	if DistanceGroup.String() != "group" {
		t.Errorf("DistanceGroup.String() = %q", DistanceGroup.String())
	}
}
