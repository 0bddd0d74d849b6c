package barrier

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// generator is one collective: its semantics, its edge rule, whether that
// rule is a circulant, and its generator.
type generator struct {
	sem       Semantics
	rule      edgeRule
	circulant bool
	pattern   func() (*Pattern, error)
}

// generators enumerates every streamed collective at one process count, the
// rooted ones at root.
func generators(p, root int) map[string]generator {
	size := func(n int) func(int) int { return func(int) int { return n } }
	doubling := func(s int) int { return 1 << s }
	return map[string]generator{
		"dissemination": {SemBarrier, circulantRule(doublings, doubling, size(0)), true,
			func() (*Pattern, error) { return Dissemination(p) }},
		"allreduce": {SemAllReduce, circulantRule(doublings, doubling, size(96)), true,
			func() (*Pattern, error) { return AllReduce(p, 96) }},
		"allgather": {SemAllGather, circulantRule(doublings, doubling, func(s int) int { return 96 << s }), true,
			func() (*Pattern, error) { return AllGather(p, 96) }},
		"allgather-ring": {SemAllGather, circulantRule(func(p int) int { return p - 1 }, size(1), size(64)), true,
			func() (*Pattern, error) { return AllGatherRing(p, 64) }},
		"broadcast": {SemBroadcast, binomialRule(root, 96, false), false,
			func() (*Pattern, error) { return Broadcast(p, root, 96) }},
		"reduce": {SemReduce, binomialRule(root, 96, true), false,
			func() (*Pattern, error) { return Reduce(p, root, 96) }},
		"total-exchange": {SemTotalExchange, circulantRule(func(p int) int { return p - 1 }, func(s int) int { return s + 1 }, size(64)), true,
			func() (*Pattern, error) { return TotalExchange(p, 64) }},
	}
}

// edge names one signal of a schedule; edgeSizes reads every signal's size
// through a StageView, as every walker does.
type edge struct{ stage, from, to int }

func edgeSizes(s sched.Schedule) map[edge]int {
	sizes := map[edge]int{}
	v := sched.ViewOf(s)
	for k := 0; k < s.NumStages(); k++ {
		v.Load(k)
		for i := 0; i < s.NumProcs(); i++ {
			for e, j := range v.Outs(i) {
				sizes[edge{k, i, j}] = v.OutSize(i, e)
			}
		}
	}
	return sizes
}

// sameEdges fails unless the schedule has the reference's stages: the same
// Out and In rows in the same order, and the same size on every edge.
func sameEdges(t *testing.T, what string, ref, s sched.Schedule) {
	t.Helper()
	if s.NumProcs() != ref.NumProcs() || s.NumStages() != ref.NumStages() {
		t.Fatalf("%s: %d ranks x %d stages, want %d x %d", what, s.NumProcs(), s.NumStages(), ref.NumProcs(), ref.NumStages())
	}
	for k := 0; k < ref.NumStages(); k++ {
		got, want := s.StageAt(k), ref.StageAt(k)
		for i := 0; i < ref.NumProcs(); i++ {
			if fmt.Sprint(got.Out[i], got.In[i]) != fmt.Sprint(want.Out[i], want.In[i]) {
				t.Fatalf("%s stage %d rank %d: out/in %v/%v, want %v/%v", what, k, i, got.Out[i], got.In[i], want.Out[i], want.In[i])
			}
		}
	}
	if got, want := edgeSizes(s), edgeSizes(ref); !maps.Equal(got, want) {
		t.Fatalf("%s: edge sizes %v, want %v", what, got, want)
	}
}

// TestStreamGeneratorsMatchPatterns holds every collective's Pattern — its
// streamed schedule wrapped, a circulant exactly for the circulant rules — to
// the collective's edge-rule literal: stage structure, edge order and payload
// sizes, the knowledge-sized edge sizes and the Predict total, and through
// the evaluator bit-identical virtual times and traffic on
// a noisy and a noise-free machine, across odd, power-of-two and
// non-power-of-two process counts. The wrapper's circulant and binomial views
// are so diffed against the edge-list walker.
func TestStreamGeneratorsMatchPatterns(t *testing.T) {
	prof := platform.Xeon8x2x4()
	for _, p := range []int{1, 2, 3, 5, 8, 12, 13, 16} {
		params := platformParams(t, prof, p)
		machines := []*platform.Machine{engineMachine(t, p, true), engineMachine(t, p, false)}
		for name, g := range generators(p, p/2) {
			pat, err := g.pattern()
			if err != nil {
				t.Fatalf("p=%d %s pattern: %v", p, name, err)
			}
			if _, ok := sched.AsCirculant(pat); ok != g.circulant {
				t.Errorf("p=%d %s: the pattern is a circulant: %v, want %v", p, name, ok, g.circulant)
			}
			ref := ruleSchedule(p, g.rule)
			what := fmt.Sprintf("p=%d %s against its literal", p, name)
			sameEdges(t, what, ref, pat)
			if got, want := edgeSizes(KnowledgeSized(pat, 16, 4*p)), edgeSizes(KnowledgeSized(ref, 16, 4*p)); !maps.Equal(got, want) {
				t.Errorf("%s: knowledge-sized edges %v, want %v", what, got, want)
			}
			predPat, err := Predict(pat, params, CostOptionsFor(g.sem))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			predRef, err := Predict(ref, params, CostOptionsFor(g.sem))
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if predPat.Total != predRef.Total {
				t.Errorf("%s: predicted %v, literal %v", what, predPat.Total, predRef.Total)
			}
			for _, m := range machines {
				resPat, err := sched.RunSchedule(context.Background(), m, pat, 2, simnet.DefaultOptions())
				if err != nil {
					t.Fatalf("%s run: %v", what, err)
				}
				resRef, err := sched.RunSchedule(context.Background(), m, ref, 2, simnet.DefaultOptions())
				if err != nil {
					t.Fatalf("%s literal run: %v", what, err)
				}
				for r := range resPat.Times {
					if resPat.Times[r] != resRef.Times[r] {
						t.Errorf("%s rank %d: pattern %v, literal %v", what, r, resPat.Times[r], resRef.Times[r])
					}
				}
				if resPat.Messages != resRef.Messages || resPat.Bytes != resRef.Bytes {
					t.Errorf("%s traffic: pattern %d/%d, literal %d/%d",
						what, resPat.Messages, resPat.Bytes, resRef.Messages, resRef.Bytes)
				}
			}
		}
	}
}

// TestAllGatherRingVerifies pins the new ring generator against the
// allgather knowledge recursion and its cost bookkeeping.
func TestAllGatherRingVerifies(t *testing.T) {
	for _, p := range []int{1, 2, 3, 7, 8, 12} {
		pat, err := AllGatherRing(p, 64)
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if err := pat.Verify(); err != nil {
			t.Errorf("p=%d: ring allgather failed verification: %v", p, err)
		}
		if _, ok := sched.AsCirculant(pat); !ok {
			t.Errorf("p=%d: ring allgather lost its circulant shape", p)
		}
	}
}
