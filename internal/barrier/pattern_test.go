package barrier

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"hbsp/internal/matrix"
	"hbsp/internal/sched"
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
	sameMatrices(t, pat, wantS0, wantS1)
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
	sameMatrices(t, pat, wantS0, wantS1)
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
	// The release stages are the transposed arrival stages in reverse order.
	sameMatrices(t, pat, wantS0, wantS1, wantS1.Transpose(), wantS0.Transpose())
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
	st := emptyStage(3)
	st.Out[1], st.In[0] = []int{0}, []int{1}
	pat := &Pattern{Name: "broken", StaticStages: sched.StaticStages{Procs: 3, Stages: []sched.Stage{st}}}
	if err := pat.Verify(); err == nil {
		t.Fatal("incomplete pattern passed verification")
	}
}

// edgeList is a one-stage literal over p ranks: the given out rows, and the
// In rows their row-major scan produces.
func edgeList(p int, out [][]int) sched.Stage {
	st := emptyStage(p)
	for i, outs := range out {
		st.Out[i] = outs
		for _, j := range outs {
			st.In[j] = append(st.In[j], i)
		}
	}
	return st
}

func TestValidateRejectsBadShapes(t *testing.T) {
	literal := func(p int, stages ...sched.Stage) *Pattern {
		return &Pattern{Name: "x", StaticStages: sched.StaticStages{Procs: p, Stages: stages}}
	}
	if err := literal(0).Validate(); err == nil {
		t.Error("zero procs should fail")
	}
	if err := literal(2).Validate(); err == nil {
		t.Error("no stages should fail")
	}
	if err := literal(3, emptyStage(2)).Validate(); err == nil {
		t.Error("wrong shape should fail")
	}
	if err := literal(2, edgeList(2, [][]int{{0}, nil})).Validate(); err == nil {
		t.Error("self signal should fail")
	}
	sized := edgeList(2, [][]int{{1}, nil})
	sized.OutBytes = [][]int{{8, 8}, nil}
	if err := literal(2, sized).Validate(); err == nil {
		t.Error("payload length mismatch should fail")
	}
}

// TestMalformedEdgeListsRefused: an edge-list literal that breaks the
// sched.Stage contract is refused with ErrInvalidPattern by every entry that
// takes a schedule — as a *sched.StaticStages and inside a *Pattern — and
// none of them panics. An edge to a rank ≥ P used to index past the knowledge
// rows, and a stage whose In omits an edge of Out used to be priced.
func TestMalformedEdgeListsRefused(t *testing.T) {
	const p = 4
	sized := func(st sched.Stage, rows ...[]int) sched.Stage { st.OutBytes = rows; return st }
	skewed := edgeList(p, [][]int{{1}, {2}, {3}, {0}})
	skewed.In = skewed.In[:p-1]
	cases := map[string]sched.Stage{
		"rank past P":           {Out: [][]int{{6}, nil, nil, nil}, In: make([][]int, p)},
		"negative rank":         {Out: [][]int{{-1}, nil, nil, nil}, In: make([][]int, p)},
		"self-signal":           edgeList(p, [][]int{{0}, nil, nil, nil}),
		"In omits an edge":      {Out: [][]int{{1}, {2}, nil, nil}, In: [][]int{nil, {0}, nil, nil}},
		"In names a non-edge":   {Out: [][]int{{1}, nil, nil, nil}, In: [][]int{nil, {0}, {3}, nil}},
		"In out of scan order":  {Out: [][]int{{2}, {2}, nil, nil}, In: [][]int{nil, nil, {1, 0}, nil}},
		"too few In rows":       skewed,
		"too few Out rows":      {Out: [][]int{{1}}, In: [][]int{nil, {0}, nil, nil}},
		"sizes short of edges":  sized(edgeList(p, [][]int{{1, 2}, nil, nil, nil}), []int{8}, nil, nil, nil),
		"too few size rows":     sized(edgeList(p, [][]int{{1}, nil, nil, nil}), []int{8}),
		"empty stage, no ranks": {},
	}
	m := xeonMachine(t, p, 0)
	params := Params{Latency: matrix.NewDense(p, p), Overhead: matrix.NewDense(p, p)}
	for name, st := range cases {
		for _, s := range []sched.Schedule{
			&sched.StaticStages{Procs: p, Stages: []sched.Stage{edgeList(p, nil), st}},
			&Pattern{Name: name, StaticStages: sched.StaticStages{Procs: p, Stages: []sched.Stage{st}}},
		} {
			what := fmt.Sprintf("%s as %T", name, s)
			func() {
				defer func() {
					if r := recover(); r != nil {
						t.Errorf("%s: panic %v", what, r)
					}
				}()
				if err := VerifySchedule(s, SemBarrier, 0); !errors.Is(err, ErrInvalidPattern) {
					t.Errorf("%s: VerifySchedule error %v, want ErrInvalidPattern", what, err)
				}
				if _, err := Predict(s, params, DefaultCostOptions()); !errors.Is(err, ErrInvalidPattern) {
					t.Errorf("%s: Predict error %v, want ErrInvalidPattern", what, err)
				}
				if _, err := Measure(m, s, 1); !errors.Is(err, ErrInvalidPattern) {
					t.Errorf("%s: Measure error %v, want ErrInvalidPattern", what, err)
				}
			}()
		}
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
			if stageMatrix(st, p).CountTrue() != p {
				return false
			}
		}
		return pat.Verify() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
