package platform

import (
	"math"
	"testing"
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
