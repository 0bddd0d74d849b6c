package barrier

import (
	"context"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"hbsp/internal/matrix"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

func TestCollectivesVerifyAcrossSizes(t *testing.T) {
	for _, p := range []int{1, 2, 3, 4, 5, 7, 8, 13, 16, 24, 31, 32, 60, 64} {
		roots := []int{0}
		if p > 1 {
			roots = append(roots, p-1, p/2)
		}
		for _, root := range roots {
			bc, err := Broadcast(p, root, 1024)
			if err != nil {
				t.Fatalf("Broadcast(%d,%d): %v", p, root, err)
			}
			if err := bc.Verify(); err != nil {
				t.Errorf("Broadcast(%d,%d) fails verification: %v", p, root, err)
			}
			rd, err := Reduce(p, root, 1024)
			if err != nil {
				t.Fatalf("Reduce(%d,%d): %v", p, root, err)
			}
			if err := rd.Verify(); err != nil {
				t.Errorf("Reduce(%d,%d) fails verification: %v", p, root, err)
			}
		}
		for name, build := range map[string]func() (*Pattern, error){
			"allreduce":      func() (*Pattern, error) { return AllReduce(p, 512) },
			"allgather":      func() (*Pattern, error) { return AllGather(p, 512) },
			"total-exchange": func() (*Pattern, error) { return TotalExchange(p, 512) },
		} {
			pat, err := build()
			if err != nil {
				t.Fatalf("%s(%d): %v", name, p, err)
			}
			if err := pat.Verify(); err != nil {
				t.Errorf("%s(%d) fails verification: %v", name, p, err)
			}
		}
	}
}

func TestCollectiveGeneratorErrors(t *testing.T) {
	if _, err := Broadcast(0, 0, 1); err == nil {
		t.Error("Broadcast(0) should fail")
	}
	if _, err := Broadcast(4, 4, 1); err == nil {
		t.Error("Broadcast with out-of-range root should fail")
	}
	if _, err := Reduce(4, -1, 1); err == nil {
		t.Error("Reduce with negative root should fail")
	}
	if _, err := AllReduce(0, 1); err == nil {
		t.Error("AllReduce(0) should fail")
	}
	if _, err := AllGather(-1, 1); err == nil {
		t.Error("AllGather(-1) should fail")
	}
	if _, err := TotalExchange(0, 1); err == nil {
		t.Error("TotalExchange(0) should fail")
	}
}

// Property: for any process count and root, the broadcast schedule reaches
// every rank, and removing its final stage breaks it whenever that stage
// carried signals a leaf depended on.
func TestBroadcastReachabilityProperty(t *testing.T) {
	f := func(rawP, rawRoot uint8) bool {
		p := int(rawP%62) + 2
		root := int(rawRoot) % p
		pat, err := Broadcast(p, root, 64)
		if err != nil {
			return false
		}
		if pat.Verify() != nil {
			return false
		}
		// The dense oracle must agree.
		if verifyDense(pat, pat.Semantics, pat.Root) != nil {
			return false
		}
		// Truncating the last stage must leave some rank without the message.
		truncated := &Pattern{Name: "truncated", Semantics: SemBroadcast, Root: root,
			StaticStages: sched.StaticStages{Procs: p, Stages: pat.Stages[:len(pat.Stages)-1]}}
		return truncated.Verify() != nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// Property: every collective generator produces schedules on which
// verification and the dense oracle agree, for random sizes and roots.
func TestCollectiveSparseDenseAgreementProperty(t *testing.T) {
	f := func(rawP, rawRoot uint8) bool {
		p := int(rawP%30) + 1
		root := int(rawRoot) % p
		pats := []*Pattern{}
		for _, build := range []func() (*Pattern, error){
			func() (*Pattern, error) { return Broadcast(p, root, 8) },
			func() (*Pattern, error) { return Reduce(p, root, 8) },
			func() (*Pattern, error) { return AllReduce(p, 8) },
			func() (*Pattern, error) { return AllGather(p, 8) },
			func() (*Pattern, error) { return TotalExchange(p, 8) },
		} {
			pat, err := build()
			if err != nil {
				return false
			}
			pats = append(pats, pat)
		}
		for _, pat := range pats {
			if (pat.Verify() == nil) != (verifyDense(pat, pat.Semantics, pat.Root) == nil) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSemanticsDistinguishSchedules(t *testing.T) {
	// A broadcast tree is a valid broadcast but not a barrier: the leaves
	// never prove their arrival to anybody.
	bc, err := Broadcast(8, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	asBarrier := &Pattern{Name: "bcast-as-barrier", StaticStages: bc.StaticStages}
	if err := asBarrier.Verify(); err == nil {
		t.Error("broadcast stages should not verify as a barrier")
	}
	if err := verifyDense(asBarrier, SemBarrier, 0); err == nil {
		t.Error("broadcast stages should not dense-verify as a barrier")
	}
	// A reduce tree delivers everything to the root but nothing back.
	rd, err := Reduce(8, 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	asBcast := &Pattern{Name: "reduce-as-broadcast", Semantics: SemBroadcast, Root: 3, StaticStages: rd.StaticStages}
	if err := asBcast.Verify(); err == nil {
		t.Error("reduce stages should not verify as a broadcast")
	}
	// A barrier pattern satisfies every flooding semantics.
	diss, _ := Dissemination(8)
	for _, sem := range []Semantics{SemAllReduce, SemAllGather, SemTotalExchange} {
		pat := &Pattern{Name: "diss", Semantics: sem, StaticStages: diss.StaticStages}
		if err := pat.Verify(); err != nil {
			t.Errorf("dissemination should verify as %s: %v", sem, err)
		}
	}
	// Rooted semantics demand a valid root.
	bad := &Pattern{Name: "bad-root", Semantics: SemReduce, Root: 9,
		StaticStages: sched.StaticStages{Procs: 8, Stages: diss.Stages[:1]}}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-range root should fail validation")
	}
}

func TestSemanticsString(t *testing.T) {
	for sem, want := range map[Semantics]string{
		SemBarrier:       "barrier",
		SemBroadcast:     "broadcast",
		SemReduce:        "reduce",
		SemAllReduce:     "allreduce",
		SemAllGather:     "allgather",
		SemTotalExchange: "total-exchange",
		Semantics(99):    "Semantics(99)",
	} {
		if got := sem.String(); got != want {
			t.Errorf("Semantics(%d).String() = %q, want %q", int(sem), got, want)
		}
	}
}

// The count payload has one text: sizing the dissemination pattern's edge
// lists (per-rank knowledge counts, materialized stages) and its streamed twin
// (one count per stage, a circulant) must give the same edges at the same
// sizes.
func TestWithCountPayloadMatchesSyncPayloadOnDissemination(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 16, 31} {
		diss, err := Dissemination(p)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := StreamDissemination(p)
		if err != nil {
			t.Fatal(err)
		}
		dense, streamed := KnowledgeSized(diss, 16, p*4), KnowledgeSized(stream, 16, p*4)
		if _, ok := streamed.(sched.CirculantSchedule); !ok {
			t.Fatalf("p=%d: a sized circulant came back as %T", p, streamed)
		}
		if ss, ok := dense.(sched.SymmetricSchedule); !ok || ss.Symmetry() != sched.SymCirculant {
			t.Fatalf("p=%d: the sized literal lost its symmetry hint", p)
		}
		if d, s := edgeSizes(dense), edgeSizes(streamed); !maps.Equal(d, s) {
			t.Fatalf("p=%d: sized literal %v, sized stream %v", p, d, s)
		}
	}
}

// Sizing reads its input: the pattern's edge lists and the sizes they carry
// stay what they were, though the sized schedule shares the edge lists.
func TestWithSyncPayloadDoesNotAliasStages(t *testing.T) {
	diss, err := AllReduce(8, 24)
	if err != nil {
		t.Fatal(err)
	}
	stages, sizes := fmt.Sprint(diss.Stages), edgeSizes(diss)
	sized := KnowledgeSized(diss, 0, 8*4)
	if got := edgeSizes(sized)[edge{1, 0, 2}]; got != 2*8*4 {
		t.Fatalf("stage 1 of the sized schedule carries %d bytes, want two count rows", got)
	}
	if fmt.Sprint(diss.Stages) != stages || !maps.Equal(edgeSizes(diss), sizes) {
		t.Fatal("KnowledgeSized changed the pattern it was given")
	}
}

func TestAllGatherPayloadAccumulates(t *testing.T) {
	pat, err := AllGather(8, 100)
	if err != nil {
		t.Fatal(err)
	}
	// Stage s of the dissemination allgather forwards min(2^s, p) blocks.
	sizes := edgeSizes(pat)
	for s, w := range []int{100, 200, 400} {
		if got := sizes[edge{s, 0, (0 + 1<<s) % 8}]; got != w {
			t.Fatalf("stage %d payload = %d, want %d", s, got, w)
		}
	}
}

func TestTotalExchangeIsDirect(t *testing.T) {
	p := 6
	pat, err := TotalExchange(p, 64)
	if err != nil {
		t.Fatal(err)
	}
	if pat.NumStages() != p-1 {
		t.Fatalf("stages = %d, want %d", pat.NumStages(), p-1)
	}
	// Across all stages every ordered pair communicates exactly once.
	seen := map[[2]int]bool{}
	for _, st := range pat.Stages {
		for i, outs := range st.Out {
			for _, j := range outs {
				if seen[[2]int{i, j}] {
					t.Fatalf("pair (%d,%d) communicates twice", i, j)
				}
				seen[[2]int{i, j}] = true
			}
		}
	}
	if len(seen) != p*(p-1) {
		t.Fatalf("covered %d pairs, want %d", len(seen), p*(p-1))
	}
}

// Cost-model-vs-simulator agreement for the collectives, with the tolerance
// the barrier experiments use for the payload-carrying sync pattern: the
// prediction may not be wildly off the simulated makespan.
func TestCollectivePredictionsTrackSimulation(t *testing.T) {
	const p = 16
	m := xeonMachine(t, p, 0)
	params := Params{
		Latency:  m.Profile().LatencyMatrix(m.Placement()),
		Overhead: overheadWithInvocation(m),
		Beta:     m.Profile().BetaMatrix(m.Placement()),
	}
	pats, err := Collectives(p, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for name, pat := range pats {
		meas, err := Measure(m, pat, 3)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pred, err := Predict(pat, params, CostOptionsFor(pat.Semantics))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if meas.MeanWorst <= 0 || pred.Total <= 0 {
			t.Fatalf("%s: non-positive times (measured %g, predicted %g)", name, meas.MeanWorst, pred.Total)
		}
		rel := (pred.Total - meas.MeanWorst) / meas.MeanWorst
		if rel > 3 || rel < -0.95 {
			t.Errorf("%s: prediction out of control: measured %g, predicted %g (rel %g)",
				name, meas.MeanWorst, pred.Total, rel)
		}
	}

	// One row above the dense limit, where only the streamed schedule exists:
	// the literal of a total exchange at P = 1024 would be 9.7 GB.
	big, err := platform.XeonCluster(128).Machine(1024)
	if err != nil {
		t.Fatal(err)
	}
	te, err := StreamTotalExchange(1024, 1024)
	if err != nil {
		t.Fatal(err)
	}
	run, err := sched.RunSchedule(context.Background(), big, te, 1, simnet.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pred, err := Predict(te, Params{
		Latency:  big.Profile().LatencyMatrix(big.Placement()),
		Overhead: overheadWithInvocation(big),
		Beta:     big.Profile().BetaMatrix(big.Placement()),
	}, CostOptionsFor(SemTotalExchange))
	if err != nil {
		t.Fatal(err)
	}
	if rel := (pred.Total - run.MakeSpan) / run.MakeSpan; run.MakeSpan <= 0 || rel > 3 || rel < -0.95 {
		t.Errorf("total exchange at P=1024: simulated %g, predicted %g (rel %g)", run.MakeSpan, pred.Total, rel)
	}
}

// overheadWithInvocation builds the ground-truth overhead matrix with the
// invocation overhead on the diagonal, the shape Params expects.
func overheadWithInvocation(m interface {
	Procs() int
	Overhead(i, j int) float64
	SelfOverhead(i int) float64
}) *matrix.Dense {
	p := m.Procs()
	o := matrix.NewDense(p, p)
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i == j {
				o.Set(i, i, m.SelfOverhead(i))
			} else {
				o.Set(i, j, m.Overhead(i, j))
			}
		}
	}
	return o
}

// randomFloodPattern builds a random multi-stage pattern; about half of them
// flood completely and verify, the rest do not — either way verification and
// the dense oracle must agree.
func randomFloodPattern(rng *rand.Rand, p int) *Pattern {
	stages := make([]sched.Stage, rng.Intn(5)+1)
	for s := range stages {
		out := make([][]int, p)
		for i := range out {
			for k := 0; k < rng.Intn(3); k++ {
				if j := rng.Intn(p); j != i && !slices.Contains(out[i], j) {
					out[i] = append(out[i], j)
				}
			}
		}
		stages[s] = edgeList(p, out)
	}
	return &Pattern{Name: "random", StaticStages: sched.StaticStages{Procs: p, Stages: stages}}
}

func TestSparseDenseAgreeOnRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		p := rng.Intn(12) + 1
		pat := randomFloodPattern(rng, p)
		sparse := pat.Verify()
		dense := verifyDense(pat, SemBarrier, 0)
		if (sparse == nil) != (dense == nil) {
			t.Fatalf("trial %d: sparse %v, dense %v for pattern\n%v", trial, sparse, dense, pat.Stages)
		}
	}
}
