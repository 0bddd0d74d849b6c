package barrier

import (
	"fmt"
	"slices"
	"testing"

	"hbsp/internal/matrix"
	"hbsp/internal/sched"
)

// TestAdjacencyMatchesStageMatrices: Adjacency hands out the pattern's stages
// as read through StageAt, and they are Fig. 5.4's stage matrices read off
// row by row.
func TestAdjacencyMatchesStageMatrices(t *testing.T) {
	pat, err := Tree(13)
	if err != nil {
		t.Fatal(err)
	}
	adj := pat.Adjacency()
	if len(adj) != pat.NumStages() || fmt.Sprint(adj[0]) != fmt.Sprint(pat.StageAt(0)) {
		t.Fatalf("adjacency is not the pattern's %d stages", pat.NumStages())
	}
	sameEdges(t, "Tree(13)", ruleSchedule(13, treeRule), &sched.StaticStages{Procs: 13, Stages: adj})
}

func TestReachSetsBasics(t *testing.T) {
	// One stage 0→69 over 70 ranks (two uint64 words per set).
	st := sched.Stage{Out: make([][]int, 70), In: make([][]int, 70)}
	st.Out[0], st.In[69] = []int{69}, []int{0}
	one := &sched.StaticStages{Procs: 70, Stages: []sched.Stage{st}}
	r := sched.NewReachSet(one)
	if !r.Has(69, 69) || r.Has(69, 0) {
		t.Fatal("reach sets not initialized to the identity")
	}
	if r.Count(69) != 1 {
		t.Fatalf("count = %d", r.Count(69))
	}
	// The receiver absorbs its sender's pre-stage set.
	v := sched.ViewOf(one)
	v.Load(0)
	r.Step(&v)
	if !r.Has(69, 0) || r.Has(0, 69) || r.Count(69) != 2 || r.Count(0) != 1 {
		t.Fatalf("after 0→69: 69 knows 0 = %t, 0 knows 69 = %t, counts %d/%d",
			r.Has(69, 0), r.Has(0, 69), r.Count(69), r.Count(0))
	}

	// A circulant schedule steps one row for all ranks. After every stage it
	// must answer Has and Count for every rank as the
	// P-row recursion over the same stages, materialized, does.
	for _, p := range []int{1, 2, 3, 7, 63, 64, 65, 128, 130} {
		for name, gen := range map[string]func(int, int) (*Pattern, error){
			"allreduce": AllReduce, "ring": AllGatherRing, "total-exchange": TotalExchange,
		} {
			stream, err := gen(p, 8)
			if err != nil {
				t.Fatal(err)
			}
			rows := materialize(stream)
			row, full := sched.NewReachSet(stream), sched.NewReachSet(rows)
			vs, vr := sched.ViewOf(stream), sched.ViewOf(rows)
			for k := 0; k < min(stream.NumStages(), 9); k++ {
				vs.Load(k)
				row.Step(&vs)
				vr.Load(k)
				full.Step(&vr)
				for rank := 0; rank < p; rank++ {
					if row.Count(rank) != full.Count(rank) {
						t.Fatalf("%s p=%d stage %d rank %d: one row counts %d, P rows %d",
							name, p, k, rank, row.Count(rank), full.Count(rank))
					}
					for o := 0; o < p; o++ {
						if row.Has(rank, o) != full.Has(rank, o) {
							t.Fatalf("%s p=%d stage %d: Has(%d, %d) = %t on one row", name, p, k, rank, o, row.Has(rank, o))
						}
					}
				}
			}
		}
	}
}

// materialize copies a schedule into mutable StaticStages (deep enough that
// rows can be edited without touching the source).
func materialize(s sched.Schedule) *sched.StaticStages {
	out := &sched.StaticStages{Procs: s.NumProcs()}
	for k := 0; k < s.NumStages(); k++ {
		st := s.StageAt(k)
		cp := sched.Stage{Out: make([][]int, out.Procs), In: make([][]int, out.Procs)}
		for i := range cp.Out {
			cp.Out[i] = append([]int(nil), st.Out[i]...)
			cp.In[i] = append([]int(nil), st.In[i]...)
		}
		out.Stages = append(out.Stages, cp)
	}
	return out
}

// removeEdge deletes the edge from→to from a materialized stage.
func removeEdge(st *sched.Stage, from, to int) {
	drop := func(row []int, x int) []int {
		for k, v := range row {
			if v == x {
				return append(row[:k:k], row[k+1:]...)
			}
		}
		return row
	}
	st.Out[from], st.In[to] = drop(st.Out[from], to), drop(st.In[to], from)
}

// TestVerifyScheduleAgreesWithVerifyDense checks the one recursion against
// the literal matrix products on every collective's pattern and its edge-rule
// literal — and that the two reject the same mutants: a dropped stage, a stage with
// one edge removed, circulants with a stage dropped or an offset changed, and
// a rooted schedule checked under all-to-all semantics. (The linear-shift
// total exchange is the one generator the first two do not break: under the
// flooding model its P−1 stages reach every pair along many paths. The
// verifiers must still agree on it.)
func TestVerifyScheduleAgreesWithVerifyDense(t *testing.T) {
	// agree runs both verifiers on one schedule and fails unless they give the
	// same verdict; it returns the verdict.
	agree := func(t *testing.T, what string, s sched.Schedule, sem Semantics, root int) bool {
		t.Helper()
		de, se := verifyDense(s, sem, root), VerifySchedule(s, sem, root)
		if (de == nil) != (se == nil) {
			t.Fatalf("%s: verifyDense %v, VerifySchedule %v", what, de, se)
		}
		return se == nil
	}
	for p := 1; p <= 33; p++ {
		for _, root := range []int{0, p - 1} {
			for name, g := range generators(p, root) {
				what, sem := fmt.Sprintf("%s p=%d root=%d", name, p, root), g.sem
				pat, err := g.pattern()
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !agree(t, what, pat, sem, root) || !agree(t, what+" literal", ruleSchedule(p, g.rule), sem, root) {
					t.Fatalf("%s: generator schedule rejected", what)
				}
				if err := pat.Verify(); err != nil { // its own semantics and root
					t.Fatalf("%s: Pattern.Verify: %v", what, err)
				}
				if p < 3 {
					continue // the mutants below need something to break
				}

				// A dropped stage (the last one).
				mut := materialize(pat)
				mut.Stages = mut.Stages[:len(mut.Stages)-1]
				if agree(t, what+" minus last stage", mut, sem, root) && sem != SemTotalExchange {
					t.Errorf("%s: accepted with its last stage dropped", what)
				}

				// One edge removed from the first stage that has one.
				mut = materialize(pat)
				for k := range mut.Stages {
					from := slices.IndexFunc(mut.Stages[k].Out, func(outs []int) bool { return len(outs) > 0 })
					if from >= 0 {
						removeEdge(&mut.Stages[k], from, mut.Stages[k].Out[from][0])
						break
					}
				}
				if agree(t, what+" minus one edge", mut, sem, root) && sem != SemTotalExchange {
					t.Errorf("%s: accepted with one edge removed", what)
				}

				// Mutants that stay circulant, which the one-row recursion has
				// to reject by itself: a dropped stage, a changed offset.
				if cs, ok := sched.AsCirculant(pat); ok {
					offs := make([]int, cs.NumStages())
					for k := range offs {
						offs[k], _ = cs.CirculantStage(k)
					}
					for _, mutant := range [][]int{offs[:len(offs)-1], append([]int{2 * offs[0]}, offs[1:]...)} {
						agree(t, fmt.Sprintf("%s with offsets %v", what, mutant), circulantOf(t, p, mutant), sem, root)
					}
				}

				// A rooted schedule under all-to-all semantics.
				if (sem == SemBroadcast || sem == SemReduce) && agree(t, what+" as allgather", pat, SemAllGather, root) {
					t.Errorf("%s: a rooted schedule passed as an allgather", what)
				}
			}
		}
	}
	// Even offsets only ever reach even distances.
	if agree(t, "offsets 2 4 8 at p=16", circulantOf(t, 16, []int{2, 4, 8}), SemAllReduce, 0) {
		t.Error("a circulant that reaches only even distances was accepted")
	}
}

// circulantOf returns the pure-signal circulant schedule with the given stage
// offsets.
func circulantOf(t *testing.T, p int, offsets []int) sched.Schedule {
	t.Helper()
	circ, err := sched.NewCirculant(p, offsets, nil)
	if err != nil {
		t.Fatal(err)
	}
	return circ
}

func TestVerifyDenseMatchesVerifyOnGenerators(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 16, 33} {
		for _, build := range []func(int) (*Pattern, error){
			func(p int) (*Pattern, error) { return Linear(p, 0) },
			Dissemination,
			Tree,
			Ring,
			FullyConnected,
		} {
			pat, err := build(p)
			if err != nil {
				t.Fatal(err)
			}
			if s, d := pat.Verify(), verifyDense(pat, pat.Semantics, pat.Root); (s == nil) != (d == nil) {
				t.Fatalf("%s(%d): sparse %v, dense %v", pat.Name, p, s, d)
			}
		}
	}
}

func benchPattern(b *testing.B, p int) *Pattern {
	b.Helper()
	pat, err := Dissemination(p)
	if err != nil {
		b.Fatal(err)
	}
	return pat
}

func BenchmarkVerifySparseP1024(b *testing.B) {
	pat := benchPattern(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pat.Verify(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyDenseP1024(b *testing.B) {
	pat := benchPattern(b, 1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := verifyDense(pat, SemBarrier, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictSparseP1024(b *testing.B) {
	pat := benchPattern(b, 1024)
	p := pat.NumProcs()
	lat := matrix.NewDense(p, p)
	ovh := matrix.NewDense(p, p)
	lat.Fill(28e-6)
	ovh.Fill(1.2e-6)
	params := Params{Latency: lat, Overhead: ovh}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(pat, params, DefaultCostOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
