package barrier

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"hbsp/internal/matrix"
	"hbsp/internal/sched"
)

func TestAdjacencyMatchesStageMatrices(t *testing.T) {
	pat, err := Tree(13)
	if err != nil {
		t.Fatal(err)
	}
	adj := pat.Adjacency()
	if len(adj) != pat.NumStages() {
		t.Fatalf("adjacency has %d stages, pattern %d", len(adj), pat.NumStages())
	}
	for s, st := range pat.Stages {
		for i := 0; i < pat.Procs; i++ {
			want := st.RowTrue(i)
			got := adj[s].Out[i]
			if len(want) != len(got) {
				t.Fatalf("stage %d row %d: out %v, want %v", s, i, got, want)
			}
			for k := range want {
				if want[k] != got[k] {
					t.Fatalf("stage %d row %d: out %v, want %v", s, i, got, want)
				}
			}
			wantIn := st.ColTrue(i)
			gotIn := adj[s].In[i]
			if len(wantIn) != len(gotIn) {
				t.Fatalf("stage %d col %d: in %v, want %v", s, i, gotIn, wantIn)
			}
		}
	}
	// The cache is reused on the second call.
	if &pat.Adjacency()[0] != &adj[0] {
		t.Fatal("adjacency not cached")
	}
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
	var origins []int
	r.ForEach(69, func(o int) { origins = append(origins, o) })
	if len(origins) != 2 || origins[0] != 0 || origins[1] != 69 {
		t.Fatalf("ForEach(69) = %v, want [0 69]", origins)
	}

	// A circulant schedule steps one row for all ranks. After every stage it
	// must answer Has, Count and ForEach (ascending) for every rank as the
	// P-row recursion over the same stages, materialized, does.
	for _, p := range []int{1, 2, 3, 7, 63, 64, 65, 128, 130} {
		for name, gen := range map[string]func(int, int) (sched.Schedule, error){
			"allreduce": StreamAllReduce, "ring": StreamAllGatherRing, "total-exchange": StreamTotalExchange,
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
					var got, want []int
					row.ForEach(rank, func(o int) { got = append(got, o) })
					full.ForEach(rank, func(o int) { want = append(want, o) })
					if !slices.Equal(got, want) || row.Count(rank) != len(want) {
						t.Fatalf("%s p=%d stage %d rank %d: one row says %v (count %d), P rows say %v",
							name, p, k, rank, got, row.Count(rank), want)
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

// TestVerifyScheduleAgreesWithVerifyDense checks the one recursion on the
// streamed generators against the literal matrix products on the dense
// generators of the same name — and that the two reject the same mutants: a
// dropped stage, a stage with one edge removed, and a rooted schedule checked
// under all-to-all semantics. (The linear-shift total exchange is the one
// generator the first two do not break: under the flooding model its P−1
// stages reach every pair along many paths. The verifiers must still agree on
// it.)
func TestVerifyScheduleAgreesWithVerifyDense(t *testing.T) {
	type gen struct {
		name   string
		sem    Semantics
		dense  func(p, root int) (*Pattern, error)
		stream func(p, root int) (sched.Schedule, error)
	}
	gens := []gen{
		{"dissemination", SemBarrier,
			func(p, _ int) (*Pattern, error) { return Dissemination(p) },
			func(p, _ int) (sched.Schedule, error) { return StreamDissemination(p) }},
		{"broadcast", SemBroadcast,
			func(p, root int) (*Pattern, error) { return Broadcast(p, root, 96) },
			func(p, root int) (sched.Schedule, error) { return StreamBroadcast(p, root, 96) }},
		{"reduce", SemReduce,
			func(p, root int) (*Pattern, error) { return Reduce(p, root, 96) },
			func(p, root int) (sched.Schedule, error) { return StreamReduce(p, root, 96) }},
		{"allreduce", SemAllReduce,
			func(p, _ int) (*Pattern, error) { return AllReduce(p, 96) },
			func(p, _ int) (sched.Schedule, error) { return StreamAllReduce(p, 96) }},
		{"allgather", SemAllGather,
			func(p, _ int) (*Pattern, error) { return AllGather(p, 96) },
			func(p, _ int) (sched.Schedule, error) { return StreamAllGather(p, 96) }},
		{"allgather-ring", SemAllGather,
			func(p, _ int) (*Pattern, error) { return AllGatherRing(p, 64) },
			func(p, _ int) (sched.Schedule, error) { return StreamAllGatherRing(p, 64) }},
		{"total-exchange", SemTotalExchange,
			func(p, _ int) (*Pattern, error) { return TotalExchange(p, 64) },
			func(p, _ int) (sched.Schedule, error) { return StreamTotalExchange(p, 64) }},
	}
	// agree runs both verifiers on one (dense, schedule) pair and fails unless
	// they give the same verdict; it returns the verdict.
	agree := func(t *testing.T, what string, dense *Pattern, s sched.Schedule, sem Semantics, root int) bool {
		t.Helper()
		dense.Semantics, dense.Root = sem, root
		de, se := dense.VerifyDense(), VerifySchedule(s, sem, root)
		if (de == nil) != (se == nil) {
			t.Fatalf("%s: VerifyDense %v, VerifySchedule %v", what, de, se)
		}
		return se == nil
	}
	for p := 1; p <= 33; p++ {
		for _, root := range []int{0, p - 1} {
			for _, g := range gens {
				what := fmt.Sprintf("%s p=%d root=%d", g.name, p, root)
				dense, err := g.dense(p, root)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				stream, err := g.stream(p, root)
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				if !agree(t, what, dense, stream, g.sem, root) {
					t.Fatalf("%s: generator schedule rejected", what)
				}
				if err := dense.Verify(); err != nil { // *Pattern through the same recursion
					t.Fatalf("%s: Pattern.Verify: %v", what, err)
				}
				if p < 3 {
					continue // the mutants below need something to break
				}

				// A dropped stage (the last one).
				mut := materialize(stream)
				mut.Stages = mut.Stages[:len(mut.Stages)-1]
				dm, _ := g.dense(p, root)
				dm.Stages, dm.Payload = dm.Stages[:len(dm.Stages)-1], nil
				if agree(t, what+" minus last stage", dm, mut, g.sem, root) && g.sem != SemTotalExchange {
					t.Errorf("%s: accepted with its last stage dropped", what)
				}

				// One edge removed from the first stage that has one.
				mut = materialize(stream)
				dm, _ = g.dense(p, root)
				dm.Payload = nil
				for k := range mut.Stages {
					from := -1
					for i, outs := range mut.Stages[k].Out {
						if len(outs) > 0 {
							from = i
							break
						}
					}
					if from < 0 {
						continue
					}
					to := mut.Stages[k].Out[from][0]
					removeEdge(&mut.Stages[k], from, to)
					dm.Stages[k].Set(from, to, false)
					break
				}
				if agree(t, what+" minus one edge", dm, mut, g.sem, root) && g.sem != SemTotalExchange {
					t.Errorf("%s: accepted with one edge removed", what)
				}

				// Mutants that stay circulant, which the one-row recursion has
				// to reject by itself: a dropped stage, a changed offset.
				if cs, ok := stream.(sched.CirculantSchedule); ok {
					offs := make([]int, cs.NumStages())
					for k := range offs {
						offs[k], _ = cs.CirculantStage(k)
					}
					for _, mutant := range [][]int{offs[:len(offs)-1], append([]int{2 * offs[0]}, offs[1:]...)} {
						circ, lit := circulantPair(t, p, mutant)
						agree(t, fmt.Sprintf("%s with offsets %v", what, mutant), lit, circ, g.sem, root)
					}
				}

				// A rooted schedule under all-to-all semantics.
				if g.sem == SemBroadcast || g.sem == SemReduce {
					dm, _ = g.dense(p, root)
					if agree(t, what+" as allgather", dm, stream, SemAllGather, root) {
						t.Errorf("%s: a rooted schedule passed as an allgather", what)
					}
				}
			}
		}
	}
	// Even offsets only ever reach even distances.
	circ, lit := circulantPair(t, 16, []int{2, 4, 8})
	if agree(t, "offsets 2 4 8 at p=16", lit, circ, SemAllReduce, 0) {
		t.Error("a circulant that reaches only even distances was accepted")
	}
}

// circulantPair returns the circulant schedule with the given stage offsets
// and its dense literal.
func circulantPair(t *testing.T, p int, offsets []int) (sched.Schedule, *Pattern) {
	t.Helper()
	circ, err := sched.NewCirculant(p, offsets, nil)
	if err != nil {
		t.Fatal(err)
	}
	lit := &Pattern{Name: "circulant", Procs: p}
	for _, off := range offsets {
		st := matrix.NewBool(p, p)
		for i := 0; i < p && off%p != 0; i++ {
			st.Set(i, (i+off)%p, true)
		}
		lit.Stages = append(lit.Stages, st)
	}
	return circ, lit
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
			if s, d := pat.Verify(), pat.VerifyDense(); (s == nil) != (d == nil) {
				t.Fatalf("%s(%d): sparse %v, dense %v", pat.Name, p, s, d)
			}
		}
	}
}

// The acceptance check for the sparse representation: at P = 1024 the sparse
// knowledge recursion must beat the dense O(P³) matrix products by a wide
// margin. A single run of each suffices — the gap is three orders of
// magnitude, so the comparison is robust against timer noise.
func TestSparseVerifyFasterThanDenseAtP1024(t *testing.T) {
	if testing.Short() {
		t.Skip("dense verification at P=1024 takes seconds")
	}
	pat, err := Dissemination(1024)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := pat.Verify(); err != nil {
		t.Fatal(err)
	}
	sparse := time.Since(start)

	start = time.Now()
	if err := pat.VerifyDense(); err != nil {
		t.Fatal(err)
	}
	dense := time.Since(start)

	t.Logf("P=1024 dissemination: sparse Verify %v, dense Verify %v", sparse, dense)
	if sparse >= dense {
		t.Fatalf("sparse Verify (%v) not faster than dense (%v) at P=1024", sparse, dense)
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
	pat.Adjacency() // build the cache outside the timed loop
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
		if err := pat.VerifyDense(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPredictSparseP1024(b *testing.B) {
	pat := benchPattern(b, 1024)
	p := pat.Procs
	lat := matrix.NewDense(p, p)
	ovh := matrix.NewDense(p, p)
	lat.Fill(28e-6)
	ovh.Fill(1.2e-6)
	params := Params{Latency: lat, Overhead: ovh}
	pat.Adjacency()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Predict(pat, params, DefaultCostOptions()); err != nil {
			b.Fatal(err)
		}
	}
}
