package core

import (
	"math"
	"testing"
	"testing/quick"

	"hbsp/internal/matrix"
)

func TestClassicParamsValidate(t *testing.T) {
	good := ClassicParams{P: 8, R: 1e9, G: 100, L: 30000}
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []ClassicParams{
		{P: 0, R: 1e9},
		{P: 4, R: 0},
		{P: 4, R: 1e9, G: -1},
		{P: 4, R: 1e9, L: -1},
	}
	for i, c := range cases {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d should fail validation", i)
		}
	}
}

func TestClassicCostFunctions(t *testing.T) {
	cp := ClassicParams{P: 4, R: 1e9, G: 10, L: 1000}
	if got := cp.Seconds(2e9); got != 2 {
		t.Fatalf("Seconds = %g", got)
	}
}

func TestInnerProductCost(t *testing.T) {
	cp := ClassicParams{P: 8, R: 1e9, G: 100, L: 30000}
	cost, err := cp.InnerProductCost(1e6)
	if err != nil {
		t.Fatal(err)
	}
	// Closed form: (N/p*2 + l + g + l + p)/r.
	want := (2*1e6/8 + 30000 + 100 + 30000 + 8) / 1e9
	if math.Abs(cost-want) > 1e-15 {
		t.Fatalf("InnerProductCost = %g, want %g", cost, want)
	}
	if _, err := cp.InnerProductCost(-1); err == nil {
		t.Fatal("negative N should fail")
	}
	if _, err := (ClassicParams{}).InnerProductCost(10); err == nil {
		t.Fatal("invalid params should fail")
	}
}

func TestInnerProductStrongScalingHasMinimum(t *testing.T) {
	// With a large l, the classic estimate first falls with P and then rises
	// again — the erroneous minimum the thesis points out in Fig. 3.2.
	cp := ClassicParams{R: 1e9, G: 300, L: 5e5}
	var costs []float64
	for p := 1; p <= 512; p *= 2 {
		cp.P = p
		c, err := cp.InnerProductCost(1e4)
		if err != nil {
			t.Fatal(err)
		}
		costs = append(costs, c)
	}
	if !(costs[1] < costs[0]) {
		t.Fatal("cost should initially decrease with P")
	}
	if !(costs[len(costs)-1] > costs[len(costs)-2]) {
		t.Fatal("cost should eventually increase with P under strong scaling")
	}
}

func TestComputeModelDAXPYExample(t *testing.T) {
	// The two-process example of Eq. 3.13: the second processor halves the
	// cost of the arithmetic thanks to a fused multiply-add.
	n := 1000.0
	req := matrix.MustDense([][]float64{{n, n, n}, {n, n, n}})
	cost := matrix.MustDense([][]float64{
		{1e-9, 1e-9, 1e-9},
		{1e-9, 0.5e-9, 0.5e-9},
	})
	times, err := ComputeModel{Requirement: req, Cost: cost}.Times()
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(times[0]-3e-6) > 1e-15 || math.Abs(times[1]-2e-6) > 1e-15 {
		t.Fatalf("times = %v", times)
	}
	if imb := Imbalance(times); math.Abs(imb-1.0/3.0) > 1e-12 {
		t.Fatalf("Imbalance = %g", imb)
	}
}

func TestComputeModelErrors(t *testing.T) {
	if _, err := (ComputeModel{}).Times(); err == nil {
		t.Fatal("missing matrices should fail")
	}
	bad := ComputeModel{Requirement: matrix.NewDense(2, 2), Cost: matrix.NewDense(3, 3)}
	if _, err := bad.Times(); err == nil {
		t.Fatal("shape mismatch should fail")
	}
}

func TestImbalanceEdgeCases(t *testing.T) {
	if Imbalance(nil) != 0 {
		t.Fatal("empty imbalance should be 0")
	}
	if Imbalance([]float64{0, 0}) != 0 {
		t.Fatal("all-zero imbalance should be 0")
	}
	if Imbalance([]float64{2, 2, 2}) != 0 {
		t.Fatal("balanced imbalance should be 0")
	}
}

func TestCommModelTimes(t *testing.T) {
	// Two processes, process 0 sends one message of 8000 bytes to process 1.
	msgs := matrix.MustDense([][]float64{{0, 1}, {0, 0}})
	lat := matrix.MustDense([][]float64{{0, 1e-5}, {1e-5, 0}})
	data := matrix.MustDense([][]float64{{0, 8000}, {0, 0}})
	beta := matrix.MustDense([][]float64{{0, 1e-8}, {1e-8, 0}})
	times, err := CommModel{Messages: msgs, Latency: lat, Data: data, Beta: beta}.Times()
	if err != nil {
		t.Fatal(err)
	}
	want0 := 1e-5 + 8000*1e-8
	if math.Abs(times[0]-want0) > 1e-15 || times[1] != 0 {
		t.Fatalf("times = %v, want [%g 0]", times, want0)
	}
	// Without a data/beta term only latency counts.
	latOnly, err := CommModel{Messages: msgs, Latency: lat}.Times()
	if err != nil {
		t.Fatal(err)
	}
	if latOnly[0] != 1e-5 {
		t.Fatalf("latency-only time = %g", latOnly[0])
	}
	if _, err := (CommModel{}).Times(); err == nil {
		t.Fatal("missing matrices should fail")
	}
}

func balancedSuperstep(p int, comp, comm float64) Superstep {
	req := UniformRequirement(p, []float64{1})
	cost := matrix.NewDense(p, 1)
	msgs := matrix.NewDense(p, p)
	lat := matrix.NewDense(p, p)
	for i := 0; i < p; i++ {
		cost.Set(i, 0, comp)
		j := (i + 1) % p
		msgs.Set(i, j, 1)
		lat.Set(i, j, comm)
	}
	return Superstep{
		Compute: ComputeModel{Requirement: req, Cost: cost},
		Comm:    CommModel{Messages: msgs, Latency: lat},
	}
}

func TestSuperstepPredictNoOverlap(t *testing.T) {
	s := balancedSuperstep(4, 1e-3, 2e-4)
	s.SyncCost = 5e-5
	pred, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}
	want := 1e-3 + 2e-4 + 5e-5
	if math.Abs(pred.Total-want) > 1e-12 {
		t.Fatalf("Total = %g, want %g", pred.Total, want)
	}
	for _, o := range pred.Overlap {
		if o != 0 {
			t.Fatalf("no overlap expected, got %v", pred.Overlap)
		}
	}
}

func TestSuperstepPredictFullOverlap(t *testing.T) {
	s := balancedSuperstep(4, 1e-3, 2e-4)
	s.SyncCost = 5e-5
	s.MaskableComp = 1
	s.MaskableComm = 1
	pred, err := s.Predict()
	if err != nil {
		t.Fatal(err)
	}
	// Fully overlappable: the superstep costs max(comp, comm) + sync.
	want := 1e-3 + 5e-5
	if math.Abs(pred.Total-want) > 1e-12 {
		t.Fatalf("Total = %g, want %g", pred.Total, want)
	}
	if pred.Overlap[0] <= 0 {
		t.Fatal("expected positive overlap")
	}
}

func TestSuperstepPredictionValidation(t *testing.T) {
	s := balancedSuperstep(2, 1e-3, 1e-4)
	s.MaskableComp = 2
	if _, err := s.Predict(); err == nil {
		t.Fatal("maskable fraction > 1 should fail")
	}
	s = balancedSuperstep(2, 1e-3, 1e-4)
	s.SyncCost = -1
	if _, err := s.Predict(); err == nil {
		t.Fatal("negative sync cost should fail")
	}
	s = balancedSuperstep(2, 1e-3, 1e-4)
	s.Comm.Messages = matrix.NewDense(3, 3)
	s.Comm.Latency = matrix.NewDense(3, 3)
	if _, err := s.Predict(); err == nil {
		t.Fatal("process count mismatch should fail")
	}
}

// Property: the predicted superstep total is never less than the best
// possible bound max(comp, comm) and never more than comp+comm (plus sync),
// for any maskable fractions in [0, 1].
func TestSuperstepBoundsProperty(t *testing.T) {
	f := func(compRaw, commRaw, mcRaw, mmRaw uint16) bool {
		comp := float64(compRaw%1000+1) * 1e-6
		comm := float64(commRaw%1000+1) * 1e-6
		mc := float64(mcRaw%101) / 100
		mm := float64(mmRaw%101) / 100
		s := balancedSuperstep(3, comp, comm)
		s.MaskableComp = mc
		s.MaskableComm = mm
		pred, err := s.Predict()
		if err != nil {
			return false
		}
		lower := math.Max(comp, comm)
		upper := comp + comm
		return pred.Total >= lower-1e-12 && pred.Total <= upper+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRequirement(t *testing.T) {
	m := UniformRequirement(3, []float64{10, 20})
	if m.Rows() != 3 || m.Cols() != 2 || m.At(2, 1) != 20 || m.At(0, 0) != 10 {
		t.Fatalf("UniformRequirement wrong: %v", m)
	}
}
