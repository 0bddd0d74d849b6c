package stencil

import (
	"math"
	"testing"
	"testing/quick"

	"hbsp/internal/platform"
)

func TestDecompose(t *testing.T) {
	d, err := Decompose(256, 16)
	if err != nil {
		t.Fatal(err)
	}
	if d.Px*d.Py != 16 || d.Px != 4 || d.Py != 4 {
		t.Fatalf("Decompose(256,16) = %+v", d)
	}
	d, err = Decompose(100, 6)
	if err != nil {
		t.Fatal(err)
	}
	if d.Px*d.Py != 6 || d.Px > d.Py {
		t.Fatalf("Decompose(100,6) = %+v", d)
	}
	if _, err := Decompose(2, 4); err == nil {
		t.Error("tiny grid should fail")
	}
	if _, err := Decompose(100, 0); err == nil {
		t.Error("zero processes should fail")
	}
}

func TestLocalSizesCoverDomain(t *testing.T) {
	d, _ := Decompose(101, 12)
	total := 0
	for r := 0; r < d.Procs(); r++ {
		rows, cols := d.LocalSize(r)
		if rows < 1 || cols < 1 {
			t.Fatalf("rank %d has empty block %dx%d", r, rows, cols)
		}
		total += rows * cols
	}
	if total != 101*101 {
		t.Fatalf("blocks cover %d cells, want %d", total, 101*101)
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	d, _ := Decompose(64, 8)
	for r := 0; r < d.Procs(); r++ {
		nb := d.Neighbors(r)
		if east := nb[East]; east >= 0 {
			if d.Neighbors(east)[West] != r {
				t.Fatalf("east/west neighbours not symmetric at rank %d", r)
			}
		}
		if south := nb[South]; south >= 0 {
			if d.Neighbors(south)[North] != r {
				t.Fatalf("north/south neighbours not symmetric at rank %d", r)
			}
		}
	}
	x, y := d.Coords(0)
	if x != 0 || y != 0 {
		t.Fatalf("Coords(0) = %d,%d", x, y)
	}
	if d.RankAt(-1, 0) != -1 || d.RankAt(0, 99) != -1 {
		t.Fatal("out-of-grid RankAt should be -1")
	}
}

func TestConfigValidate(t *testing.T) {
	good := Config{N: 64, Iterations: 2, C: 0.25}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{N: 2, Iterations: 1, C: 0.2},
		{N: 64, Iterations: 0, C: 0.2},
		{N: 64, Iterations: 1, C: 0},
		{N: 64, Iterations: 1, C: 0.3},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
}

func quietProfile() *platform.Profile {
	p := platform.Xeon8x2x4()
	p.NoiseRel = 0
	return p
}

// serialReference runs the stencil on a single process and returns its
// checksum: the parallel results of every implementation must match it.
func serialReference(t *testing.T, cfg Config) float64 {
	t.Helper()
	prof := quietProfile()
	m, err := prof.Machine(1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunMPI(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res.Checksum
}

func TestImplementationsAgreeWithSerialReference(t *testing.T) {
	cfg := Config{N: 48, Iterations: 3, C: 0.2}
	want := serialReference(t, cfg)
	prof := quietProfile()
	m, err := prof.Machine(8)
	if err != nil {
		t.Fatal(err)
	}

	bspRes, err := RunBSP(m, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	mpiRes, err := RunMPI(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mpirRes, err := RunMPIRestructured(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	hybRes, err := RunHybrid(prof, 4, cfg, 0.9)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*RunResult{bspRes, mpiRes, mpirRes, hybRes} {
		if rel := math.Abs(res.Checksum-want) / math.Abs(want); rel > 1e-9 {
			t.Errorf("%s checksum %g differs from serial reference %g", res.Implementation, res.Checksum, want)
		}
		if res.WallTime <= 0 || res.PerIteration <= 0 {
			t.Errorf("%s has non-positive times: %+v", res.Implementation, res)
		}
	}
	// Partial overlap windows must not change the numerics either.
	partial, err := RunBSP(m, cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(partial.Checksum-want) / math.Abs(want); rel > 1e-9 {
		t.Errorf("partial-overlap BSP checksum %g differs from %g", partial.Checksum, want)
	}
}

func TestValidationErrors(t *testing.T) {
	prof := quietProfile()
	m, _ := prof.Machine(4)
	cfg := Config{N: 48, Iterations: 1, C: 0.2}
	if _, err := RunBSP(nil, cfg, 1); err == nil {
		t.Error("nil machine should fail")
	}
	if _, err := RunBSP(m, Config{}, 1); err == nil {
		t.Error("invalid config should fail")
	}
	if _, err := RunBSP(m, cfg, 1.5); err == nil {
		t.Error("bad overlap fraction should fail")
	}
	if _, err := RunMPI(nil, cfg); err == nil {
		t.Error("nil machine should fail for MPI")
	}
	if _, err := RunHybrid(nil, 2, cfg, 0.9); err == nil {
		t.Error("nil profile should fail")
	}
	if _, err := RunHybrid(prof, 99, cfg, 0.9); err == nil {
		t.Error("too many nodes should fail")
	}
	if _, err := RunHybrid(prof, 2, cfg, 1.5); err == nil {
		t.Error("bad thread efficiency should fail")
	}
	if _, err := runMessagePassing(m, cfg, false, 0, "x"); err == nil {
		t.Error("zero speedup should fail")
	}
}

func TestOverlapImprovesBSPOverMPI(t *testing.T) {
	// With a communication-heavy configuration the overlap-capable variants
	// must not lose to the blocking MPI implementation by any margin, and
	// the restructured variant should win visibly.
	cfg := Config{N: 96, Iterations: 4, C: 0.2, Synthetic: true}
	prof := quietProfile()
	m, err := prof.Machine(16)
	if err != nil {
		t.Fatal(err)
	}
	mpiRes, err := RunMPI(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	mpirRes, err := RunMPIRestructured(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if mpirRes.PerIteration > mpiRes.PerIteration*1.05 {
		t.Errorf("MPI+R (%g) should not be slower than MPI (%g)", mpirRes.PerIteration, mpiRes.PerIteration)
	}
}

func TestStrongScalingImprovesWallTime(t *testing.T) {
	// The problem must be large enough for computation to dominate the
	// communication and synchronization costs, otherwise strong scaling
	// stalls (exactly the A-series observation for small problems).
	cfg := Config{N: 1536, Iterations: 2, C: 0.2, Synthetic: true}
	prof := quietProfile()
	var prev float64
	for i, procs := range []int{1, 4, 16} {
		m, err := prof.Machine(procs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunBSP(m, cfg, 1)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && res.WallTime >= prev {
			t.Errorf("no speedup from %d processes: %g >= %g", procs, res.WallTime, prev)
		}
		prev = res.WallTime
	}
}

func TestPredictionTracksMeasurement(t *testing.T) {
	// Chapter 8's B-series claim: the model predicts the BSP stencil's
	// iteration time to within a modest factor.
	cfg := Config{N: 256, Iterations: 3, C: 0.2, Synthetic: true}
	prof := quietProfile()
	const procs = 16
	m, err := prof.Machine(procs)
	if err != nil {
		t.Fatal(err)
	}
	params, err := GroundTruthParams(prof, procs)
	if err != nil {
		t.Fatal(err)
	}
	pred, err := PredictIteration(prof, params, procs, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	meas, err := RunBSP(m, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	ratio := pred.Total / meas.PerIteration
	if ratio < 0.33 || ratio > 3 {
		t.Fatalf("prediction %g vs measurement %g (ratio %.2f)", pred.Total, meas.PerIteration, ratio)
	}
}

func TestBuildModelValidation(t *testing.T) {
	prof := quietProfile()
	params, err := GroundTruthParams(prof, 4)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 64, Iterations: 1, C: 0.2}
	if _, err := BuildModel(nil, params, 4, cfg, 1); err == nil {
		t.Error("nil profile should fail")
	}
	if _, err := BuildModel(prof, params, 4, Config{}, 1); err == nil {
		t.Error("invalid config should fail")
	}
	if _, err := BuildModel(prof, params, 4, cfg, 2); err == nil {
		t.Error("bad fraction should fail")
	}
	if _, err := BuildModel(prof, params, 8, cfg, 1); err == nil {
		t.Error("params/procs mismatch should fail")
	}
	setup, err := BuildModel(prof, params, 4, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if setup.SyncCost <= 0 {
		t.Error("sync cost should be positive")
	}
}

func TestOverlapSweepAndOptimum(t *testing.T) {
	prof := quietProfile()
	const procs = 16
	params, err := GroundTruthParams(prof, procs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 256, Iterations: 1, C: 0.2}
	fractions := []float64{0, 0.25, 0.5, 0.75, 1}
	points, err := PredictOverlapSweep(prof, params, procs, cfg, fractions)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(fractions) {
		t.Fatalf("got %d points", len(points))
	}
	// Larger overlap windows can only help in the model.
	for i := 1; i < len(points); i++ {
		if points[i].Predicted > points[i-1].Predicted*1.0001 {
			t.Errorf("prediction increased with overlap: %v", points)
		}
	}
	best, err := OptimalOverlap(points, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if best.Fraction < 0 || best.Fraction > 1 {
		t.Fatalf("optimal fraction %g out of range", best.Fraction)
	}
	if _, err := OptimalOverlap(nil, 0.05); err == nil {
		t.Error("empty sweep should fail")
	}
}

func TestMeasureBSPMedian(t *testing.T) {
	prof := platform.Xeon8x2x4()
	prof.NoiseRel = 0.03
	m, err := prof.Machine(8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 64, Iterations: 2, C: 0.2, Synthetic: true}
	res, err := MeasureBSP(m, cfg, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.PerIteration <= 0 || res.WallTime <= 0 {
		t.Fatalf("bad measurement %+v", res)
	}
}

// Property: every decomposition partitions the domain exactly and neighbour
// relations stay inside the process grid.
func TestDecompositionProperty(t *testing.T) {
	f := func(nRaw, pRaw uint8) bool {
		n := int(nRaw%200) + 16
		p := int(pRaw%32) + 1
		d, err := Decompose(n, p)
		if err != nil {
			// Degenerate combinations (more processes along an axis than
			// grid rows) are rejected rather than decomposed.
			return true
		}
		if d.Procs() != p {
			return false
		}
		total := 0
		for r := 0; r < p; r++ {
			rows, cols := d.LocalSize(r)
			if rows < 1 || cols < 1 {
				return false
			}
			total += rows * cols
			for _, nb := range d.Neighbors(r) {
				if nb >= p {
					return false
				}
			}
		}
		return total == n*n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestLocalGridMatchesInitialValue pins newLocalGrid's separable fill to the
// cell-wise reference bit for bit, hot plate included, with a zero ghost
// frame and next a copy of cur.
func TestLocalGridMatchesInitialValue(t *testing.T) {
	for _, tc := range []struct{ n, p int }{{3, 1}, {17, 1}, {16, 4}, {33, 6}, {64, 16}, {50, 7}} {
		d, err := Decompose(tc.n, tc.p)
		if err != nil {
			t.Fatal(err)
		}
		for rank := 0; rank < d.Procs(); rank++ {
			g := newLocalGrid(d, rank)
			gr, gc := d.GlobalOrigin(rank)
			for r := -1; r <= g.rows; r++ {
				for c := -1; c <= g.cols; c++ {
					want := 0.0
					if r >= 0 && r < g.rows && c >= 0 && c < g.cols {
						want = initialValue(tc.n, gr+r, gc+c)
					}
					got := g.cur[g.index(r, c)]
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("n=%d p=%d rank %d cell (%d,%d): %.17g, want %.17g", tc.n, tc.p, rank, r, c, got, want)
					}
					if next := g.next[g.index(r, c)]; math.Float64bits(next) != math.Float64bits(got) {
						t.Fatalf("n=%d p=%d rank %d cell (%d,%d): next %.17g, cur %.17g", tc.n, tc.p, rank, r, c, next, got)
					}
				}
			}
			if &g.next[0] == &g.cur[0] {
				t.Fatalf("n=%d p=%d rank %d: a sweeping run's buffers alias", tc.n, tc.p, rank)
			}
		}
	}
}

// TestSyntheticRunKeepsInitialChecksum runs the synthetic variants, which
// update no cell: after any number of iterations the checksum is the initial
// condition's, rank by rank.
func TestSyntheticRunKeepsInitialChecksum(t *testing.T) {
	const n, p = 48, 6
	m, err := platform.Xeon8x2x4().Machine(p)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decompose(n, p)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for rank := 0; rank < p; rank++ {
		want += newLocalGrid(d, rank).checksum()
	}
	cfg := Config{N: n, Iterations: 3, C: 0.2, Synthetic: true}
	bspRes, err := RunBSP(m, cfg, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	mpiRes, err := RunMPI(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, res := range []*RunResult{bspRes, mpiRes} {
		if math.Float64bits(res.Checksum) != math.Float64bits(want) {
			t.Errorf("%s: checksum %.17g, initial condition %.17g", res.Implementation, res.Checksum, want)
		}
	}
}
