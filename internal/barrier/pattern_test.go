package barrier

import (
	"testing"
	"testing/quick"

	"hbsp/internal/matrix"
)

func TestLinearMatchesFigure5_2(t *testing.T) {
	pat, err := Linear(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if pat.NumStages() != 2 {
		t.Fatalf("stages = %d", pat.NumStages())
	}
	wantS0 := matrix.MustBool([][]int{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{1, 0, 0, 0},
		{1, 0, 0, 0},
	})
	wantS1 := matrix.MustBool([][]int{
		{0, 1, 1, 1},
		{0, 0, 0, 0},
		{0, 0, 0, 0},
		{0, 0, 0, 0},
	})
	if !pat.Stages[0].Equal(wantS0) || !pat.Stages[1].Equal(wantS1) {
		t.Fatalf("linear pattern does not match Fig. 5.2:\n%v\n%v", pat.Stages[0], pat.Stages[1])
	}
}

func TestDisseminationMatchesFigure5_3(t *testing.T) {
	pat, err := Dissemination(4)
	if err != nil {
		t.Fatal(err)
	}
	if pat.NumStages() != 2 {
		t.Fatalf("stages = %d", pat.NumStages())
	}
	wantS0 := matrix.MustBool([][]int{
		{0, 1, 0, 0},
		{0, 0, 1, 0},
		{0, 0, 0, 1},
		{1, 0, 0, 0},
	})
	wantS1 := matrix.MustBool([][]int{
		{0, 0, 1, 0},
		{0, 0, 0, 1},
		{1, 0, 0, 0},
		{0, 1, 0, 0},
	})
	if !pat.Stages[0].Equal(wantS0) || !pat.Stages[1].Equal(wantS1) {
		t.Fatalf("dissemination pattern does not match Fig. 5.3:\n%v\n%v", pat.Stages[0], pat.Stages[1])
	}
}

func TestTreeMatchesFigure5_4(t *testing.T) {
	pat, err := Tree(4)
	if err != nil {
		t.Fatal(err)
	}
	if pat.NumStages() != 4 {
		t.Fatalf("stages = %d", pat.NumStages())
	}
	wantS0 := matrix.MustBool([][]int{
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 0, 0},
		{0, 0, 1, 0},
	})
	wantS1 := matrix.MustBool([][]int{
		{0, 0, 0, 0},
		{0, 0, 0, 0},
		{1, 0, 0, 0},
		{0, 0, 0, 0},
	})
	if !pat.Stages[0].Equal(wantS0) || !pat.Stages[1].Equal(wantS1) {
		t.Fatalf("tree arrival stages do not match Fig. 5.4:\n%v\n%v", pat.Stages[0], pat.Stages[1])
	}
	if !pat.Stages[2].Equal(wantS1.Transpose()) || !pat.Stages[3].Equal(wantS0.Transpose()) {
		t.Fatal("tree release stages are not the transposed arrival stages in reverse order")
	}
}

func TestGeneratorsVerifyAcrossSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 24, 31, 32, 60, 64} {
		lin, err := Linear(p, 0)
		if err != nil {
			t.Fatalf("Linear(%d): %v", p, err)
		}
		if err := lin.Verify(); err != nil {
			t.Errorf("Linear(%d) fails verification: %v", p, err)
		}
		diss, err := Dissemination(p)
		if err != nil {
			t.Fatalf("Dissemination(%d): %v", p, err)
		}
		if err := diss.Verify(); err != nil {
			t.Errorf("Dissemination(%d) fails verification: %v", p, err)
		}
		tree, err := Tree(p)
		if err != nil {
			t.Fatalf("Tree(%d): %v", p, err)
		}
		if err := tree.Verify(); err != nil {
			t.Errorf("Tree(%d) fails verification: %v", p, err)
		}
		ring, err := Ring(p)
		if err != nil {
			t.Fatalf("Ring(%d): %v", p, err)
		}
		if err := ring.Verify(); err != nil {
			t.Errorf("Ring(%d) fails verification: %v", p, err)
		}
		full, err := FullyConnected(p)
		if err != nil {
			t.Fatalf("FullyConnected(%d): %v", p, err)
		}
		if err := full.Verify(); err != nil {
			t.Errorf("FullyConnected(%d) fails verification: %v", p, err)
		}
	}
}

func TestGeneratorErrors(t *testing.T) {
	if _, err := Linear(0, 0); err == nil {
		t.Error("Linear(0) should fail")
	}
	if _, err := Linear(4, 7); err == nil {
		t.Error("Linear with out-of-range root should fail")
	}
	if _, err := Dissemination(0); err == nil {
		t.Error("Dissemination(0) should fail")
	}
	if _, err := Tree(-1); err == nil {
		t.Error("Tree(-1) should fail")
	}
	if _, err := Ring(0); err == nil {
		t.Error("Ring(0) should fail")
	}
	if _, err := FullyConnected(0); err == nil {
		t.Error("FullyConnected(0) should fail")
	}
}

func TestVerifyRejectsIncompletePattern(t *testing.T) {
	// A single stage in which only process 1 signals process 0 cannot be a
	// correct 3-process barrier.
	st := matrix.NewBool(3, 3)
	st.Set(1, 0, true)
	pat := &Pattern{Name: "broken", Procs: 3, Stages: []*matrix.Bool{st}}
	if err := pat.Verify(); err == nil {
		t.Fatal("incomplete pattern passed verification")
	}
}

func TestValidateRejectsBadShapes(t *testing.T) {
	if err := (&Pattern{Name: "x", Procs: 0}).Validate(); err == nil {
		t.Error("zero procs should fail")
	}
	if err := (&Pattern{Name: "x", Procs: 2}).Validate(); err == nil {
		t.Error("no stages should fail")
	}
	wrong := &Pattern{Name: "x", Procs: 3, Stages: []*matrix.Bool{matrix.NewBool(2, 2)}}
	if err := wrong.Validate(); err == nil {
		t.Error("wrong shape should fail")
	}
	self := matrix.NewBool(2, 2)
	self.Set(0, 0, true)
	if err := (&Pattern{Name: "x", Procs: 2, Stages: []*matrix.Bool{self}}).Validate(); err == nil {
		t.Error("self signal should fail")
	}
	okStage := matrix.NewBool(2, 2)
	okStage.Set(0, 1, true)
	padMismatch := &Pattern{
		Name: "x", Procs: 2,
		Stages:  []*matrix.Bool{okStage},
		Payload: []*matrix.Dense{matrix.NewDense(2, 2), matrix.NewDense(2, 2)},
	}
	if err := padMismatch.Validate(); err == nil {
		t.Error("payload length mismatch should fail")
	}
}

func TestSignalsCount(t *testing.T) {
	pat, _ := Linear(5, 0)
	if got := pat.Signals(); got != 8 {
		t.Fatalf("Linear(5) signals = %d, want 8", got)
	}
	diss, _ := Dissemination(8)
	if got := diss.Signals(); got != 24 {
		t.Fatalf("Dissemination(8) signals = %d, want 24", got)
	}
}

func TestWithSyncPayload(t *testing.T) {
	diss, _ := Dissemination(8)
	withPayload := KnowledgeSized(diss, 0, 8*4)
	if withPayload.NumProcs() != 8 || withPayload.NumStages() != diss.NumStages() {
		t.Fatalf("sized schedule is %d ranks x %d stages", withPayload.NumProcs(), withPayload.NumStages())
	}
	sizes := edgeSizes(withPayload)
	// Stage 0 carries one row of 8 counters; stage 2 carries four rows.
	if got := sizes[edge{0, 0, 1}]; got != 8*4 {
		t.Fatalf("stage 0 payload = %d", got)
	}
	if got := sizes[edge{2, 0, 4}]; got != 4*8*4 {
		t.Fatalf("stage 2 payload = %d", got)
	}
	// Payload never exceeds the full P×P map.
	if len(sizes) != diss.Signals() {
		t.Fatalf("%d sized edges for %d signals", len(sizes), diss.Signals())
	}
	for e, size := range sizes {
		if size > 8*8*4 {
			t.Fatalf("stage %d payload exceeds the full map", e.stage)
		}
	}
	// The plain pattern reports zero payloads.
	if got, ok := edgeSizes(diss)[edge{0, 0, 1}]; !ok || got != 0 {
		t.Fatalf("plain pattern's edge 0→1 of stage 0: present %v carrying %d bytes, want a pure signal", ok, got)
	}
}

// Property: for any process count, the dissemination barrier has exactly
// ⌈log2 P⌉ stages and P signals per stage, and every generator verifies.
func TestDisseminationShapeProperty(t *testing.T) {
	f := func(raw uint8) bool {
		p := int(raw%63) + 2
		pat, err := Dissemination(p)
		if err != nil {
			return false
		}
		wantStages := 0
		for d := 1; d < p; d *= 2 {
			wantStages++
		}
		if pat.NumStages() != wantStages {
			return false
		}
		for _, st := range pat.Stages {
			if st.CountTrue() != p {
				return false
			}
		}
		return pat.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
