package core

import (
	"math"
	"testing"
)

func TestProgramPredictSumsSteps(t *testing.T) {
	stepA := balancedSuperstep(4, 1e-3, 1e-4)
	stepA.SyncCost = 5e-5
	stepB := balancedSuperstep(4, 2e-3, 2e-4)
	stepB.SyncCost = 5e-5
	prog := Program{Name: "two-step", Steps: []Superstep{stepA, stepB}}
	pred, err := prog.Predict()
	if err != nil {
		t.Fatal(err)
	}
	a, _ := stepA.Predict()
	b, _ := stepB.Predict()
	want := a.Total + b.Total
	if math.Abs(pred.Total-want) > 1e-12 {
		t.Fatalf("program total %g, want %g", pred.Total, want)
	}
	if len(pred.StepPredictions) != 2 || len(pred.StepTotals) != 2 {
		t.Fatalf("per-step outputs missing: %+v", pred)
	}
	if pred.SyncTime != 1e-4 {
		t.Fatalf("SyncTime = %g", pred.SyncTime)
	}
	if pred.ComputeTime <= 0 || pred.CommTime <= 0 {
		t.Fatal("aggregate component times missing")
	}
}

func TestProgramRepetitions(t *testing.T) {
	step := balancedSuperstep(2, 1e-3, 1e-4)
	step.SyncCost = 1e-5
	prog := Program{Name: "iterative", Steps: []Superstep{step}, Repetitions: []int{10}}
	pred, err := prog.Predict()
	if err != nil {
		t.Fatal(err)
	}
	single, _ := step.Predict()
	if math.Abs(pred.Total-10*single.Total) > 1e-12 {
		t.Fatalf("iterative total %g, want %g", pred.Total, 10*single.Total)
	}
	// Zero repetitions contribute nothing.
	zero := Program{Steps: []Superstep{step}, Repetitions: []int{0}}
	zp, err := zero.Predict()
	if err != nil {
		t.Fatal(err)
	}
	if zp.Total != 0 {
		t.Fatalf("zero-repetition total %g", zp.Total)
	}
}

func TestProgramValidation(t *testing.T) {
	if _, err := (Program{}).Predict(); err == nil {
		t.Error("empty program should fail")
	}
	step := balancedSuperstep(2, 1e-3, 1e-4)
	mismatch := Program{Steps: []Superstep{step}, Repetitions: []int{1, 2}}
	if _, err := mismatch.Predict(); err == nil {
		t.Error("repetition count mismatch should fail")
	}
	negative := Program{Steps: []Superstep{step}, Repetitions: []int{-1}}
	if _, err := negative.Predict(); err == nil {
		t.Error("negative repetitions should fail")
	}
	bad := step
	bad.MaskableComp = 7
	broken := Program{Steps: []Superstep{bad}}
	if _, err := broken.Predict(); err == nil {
		t.Error("invalid superstep should fail")
	}
}

func TestProgramOverlapSpeedup(t *testing.T) {
	overlapped := balancedSuperstep(4, 1e-3, 8e-4)
	overlapped.MaskableComm = 1
	overlapped.MaskableComp = 1
	postponed := balancedSuperstep(4, 1e-3, 8e-4)

	fast, err := Program{Name: "overlapped", Steps: []Superstep{overlapped}, Repetitions: []int{100}}.Predict()
	if err != nil {
		t.Fatal(err)
	}
	slow, err := Program{Name: "postponed", Steps: []Superstep{postponed}, Repetitions: []int{100}}.Predict()
	if err != nil {
		t.Fatal(err)
	}
	sp := fast.Speedup(slow)
	if sp <= 1 {
		t.Fatalf("overlapping should speed the program up, got %g", sp)
	}
	// Perfect overlap of equal compute and communication is bounded by 2x
	// (Bisseling's argument quoted in Section 3.5).
	if sp > 2 {
		t.Fatalf("overlap speedup %g exceeds the theoretical bound of 2", sp)
	}
	if fast.Overlap <= 0 {
		t.Fatal("overlap time not reported")
	}
	if (&ProgramPrediction{}).Speedup(slow) != 0 {
		t.Fatal("zero-total speedup should be 0")
	}
}
