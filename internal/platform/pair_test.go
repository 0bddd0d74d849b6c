package platform

import (
	"maps"
	"math"
	"testing"

	"hbsp/internal/topology"
)

// TestPairPricesProfileFormulasBitForBit pins the machine's single
// representation against the profile formulas it freezes: for every ordered
// pair — self pairs included — Pair's five values and the four single
// accessors equal Profile.Latency/Gap/Beta/Overhead bit for bit, the return
// latency is Latency(j, i), and the NIC flag agrees with NIC. The presets
// cover per-pair heterogeneity, heterogeneous nodes, both grouped networks
// and a scaled profile (whose columns differ from its source's).
func TestPairPricesProfileFormulasBitForBit(t *testing.T) {
	for _, prof := range []*Profile{
		Xeon8x2x4(), FlatCluster(12), HeteroDemo(),
		FatTreeCluster(3, 4), DragonflyCluster(4, 3),
		Xeon8x2x4().Scaled(1.5, 0.25, 3, 0.5),
	} {
		const p = 12
		m, err := prof.Machine(p)
		if err != nil {
			t.Fatal(err)
		}
		pl := m.Placement()
		same := func(what string, i, j int, got, want float64) {
			t.Helper()
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s %s(%d,%d) = %v, profile formula gives %v", prof.Name, what, i, j, got, want)
			}
		}
		for i := 0; i < p; i++ {
			for j := 0; j < p; j++ {
				lat, gap, beta, ovh, ret, sameNIC := m.Pair(i, j)
				same("Pair.lat", i, j, lat, prof.Latency(pl, i, j))
				same("Pair.gap", i, j, gap, prof.Gap(pl, i, j))
				same("Pair.beta", i, j, beta, prof.Beta(pl, i, j))
				same("Pair.ovh", i, j, ovh, prof.Overhead(pl, i, j))
				same("Pair.ret", i, j, ret, prof.Latency(pl, j, i))
				same("Latency", i, j, m.Latency(i, j), lat)
				same("Gap", i, j, m.Gap(i, j), gap)
				same("Beta", i, j, m.Beta(i, j), beta)
				same("Overhead", i, j, m.Overhead(i, j), ovh)
				if sameNIC != (m.NIC(i) == m.NIC(j)) {
					t.Errorf("%s Pair(%d,%d) sameNIC = %v, NICs %d and %d", prof.Name, i, j, sameNIC, m.NIC(i), m.NIC(j))
				}
			}
		}
	}
}

// oracleDistance classifies a pair from the ranks' cores, the text a
// placement answered before it kept one record per rank: the distance of the
// two cores, promoted to DistanceGroup when their nodes sit in different
// switch groups.
func oracleDistance(pl *topology.Placement, a, b int) topology.Distance {
	ca, cb := pl.Core(a), pl.Core(b)
	switch {
	case ca == cb:
		return topology.DistanceSelf
	case ca.Node != cb.Node:
		if t := pl.Topology; t.GroupOf(ca.Node) != t.GroupOf(cb.Node) {
			return topology.DistanceGroup
		}
		return topology.DistanceNetwork
	case ca.Socket != cb.Socket:
		return topology.DistanceNode
	default:
		return topology.DistanceSocket
	}
}

// TestPairClassesAtScale holds every ordered pair's class and price to the
// oracle at rank counts that span several nodes and — on the grouped
// machines — three or more switch groups, under both placements: the Opteron
// cluster full, the same cluster cut into three groups of four nodes, a fat
// tree and a dragonfly.
func TestPairClassesAtScale(t *testing.T) {
	grouped := Opteron12x2x6()
	grouped.Name += "/g4"
	grouped.Topology.NodesPerGroup = 4
	grouped.Links = maps.Clone(grouped.Links)
	grouped.Links[topology.DistanceGroup] = FatTreeCluster(1, 1).Links[topology.DistanceGroup]
	for _, c := range []struct {
		prof   *Profile
		p      int
		groups int
	}{{Opteron12x2x6(), 144, 1}, {grouped, 144, 3}, {FatTreeCluster(4, 8), 32, 4}, {DragonflyCluster(5, 6), 30, 5}} {
		for _, policy := range []topology.PlacementPolicy{topology.RoundRobin, topology.Block} {
			pl, err := c.prof.PlaceWith(c.p, policy)
			if err != nil {
				t.Fatal(err)
			}
			m := c.prof.MachineFor(pl)
			nodes, seen := map[int]bool{}, map[int]bool{}
			for a := 0; a < c.p; a++ {
				nodes[pl.NodeOf(a)] = true
				seen[pl.Topology.GroupOf(pl.NodeOf(a))] = true
			}
			if len(nodes) < 2 {
				t.Fatalf("%s %v: %d ranks on %d node", c.prof.Name, policy, c.p, len(nodes))
			}
			if len(seen) != c.groups {
				t.Fatalf("%s %v: ranks span %d switch groups, want %d", c.prof.Name, policy, len(seen), c.groups)
			}
			for a := 0; a < c.p; a++ {
				for b := 0; b < c.p; b++ {
					want := oracleDistance(pl, a, b)
					if got := pl.Distance(a, b); got != want {
						t.Fatalf("%s %v: Distance(%d,%d) = %v, oracle %v", c.prof.Name, policy, a, b, got, want)
					}
					if got := m.PairClass(a, b); got != uint8(want) {
						t.Fatalf("%s %v: PairClass(%d,%d) = %d, oracle %v", c.prof.Name, policy, a, b, got, want)
					}
					lat, _, beta, ovh, _, sameNIC := m.Pair(a, b)
					l, f := Link{Overhead: c.prof.SelfOverhead}, 1.0
					if want != topology.DistanceSelf {
						l, f = c.prof.Links[want], c.prof.pairFactor(a, b)
					}
					if math.Float64bits(lat) != math.Float64bits(l.Latency*f) || math.Float64bits(beta) != math.Float64bits(l.Beta*f) ||
						math.Float64bits(ovh) != math.Float64bits(l.Overhead*f) || sameNIC != (want < topology.DistanceNetwork) {
						t.Fatalf("%s %v: Pair(%d,%d) = lat %v beta %v ovh %v sameNIC %v, oracle class %v prices %+v × %v",
							c.prof.Name, policy, a, b, lat, beta, ovh, sameNIC, want, l, f)
					}
				}
			}
		}
	}
}

// pairSink keeps BenchmarkMachinePair's calls live.
var pairSink float64

// BenchmarkMachinePair times Machine.Pair, classification and factor hash,
// over a circulant sweep of the heterogeneous Xeon cluster at P = 1,024: every
// offset, every rank to its peer (r + off) mod P, as a total exchange prices
// them. It reports ns per priced pair.
func BenchmarkMachinePair(b *testing.B) {
	const p = 1024
	m, err := XeonClusterMachine(p)
	if err != nil {
		b.Fatal(err)
	}
	for b.Loop() {
		for off := 1; off < p; off++ {
			for r := 0; r < p; r++ {
				lat, _, _, _, _, _ := m.Pair(r, (r+off)%p)
				pairSink += lat
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*p*(p-1)), "ns/pair")
}

// TestSymmetryPredicates pins the machine side of the collapse eligibility
// tests on the presets the collapse paths rely on.
func TestSymmetryPredicates(t *testing.T) {
	flat, err := FlatClusterMachine(16)
	if err != nil {
		t.Fatal(err)
	}
	if !flat.HomogeneousClasses() || !flat.UniformPairs() {
		t.Errorf("flat cluster: homogeneous=%v uniform=%v, want true/true", flat.HomogeneousClasses(), flat.UniformPairs())
	}
	homog, err := XeonClusterHomogeneousMachine(16)
	if err != nil {
		t.Fatal(err)
	}
	if !homog.HomogeneousClasses() {
		t.Error("homogeneous Xeon: HomogeneousClasses() = false")
	}
	if homog.UniformPairs() {
		t.Error("homogeneous Xeon at 16 ranks on 2 nodes: UniformPairs() = true, want false (intra-node pairs exist)")
	}
	hetero, err := XeonClusterMachine(16)
	if err != nil {
		t.Fatal(err)
	}
	if hetero.HomogeneousClasses() {
		t.Error("Xeon with HeteroSpread > 0: HomogeneousClasses() = true")
	}
	noisy, err := Xeon8x2x4().Machine(16)
	if err != nil {
		t.Fatal(err)
	}
	if noisy.HomogeneousClasses() {
		t.Error("Xeon8x2x4 with NoiseRel > 0: HomogeneousClasses() = true")
	}
}
