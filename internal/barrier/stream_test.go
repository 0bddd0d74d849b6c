package barrier

import (
	"context"
	"fmt"
	"maps"
	"testing"

	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// generator is one collective: its semantics, its edge rule, its Pattern
// generator and its streamed twin.
type generator struct {
	sem     Semantics
	rule    edgeRule
	pattern func() (*Pattern, error)
	stream  func() (sched.Schedule, error)
}

// generators enumerates every streamed collective at one process count, the
// rooted ones at root.
func generators(p, root int) map[string]generator {
	size := func(n int) func(int) int { return func(int) int { return n } }
	doubling := func(s int) int { return 1 << s }
	return map[string]generator{
		"dissemination": {SemBarrier, circulantRule(doublings, doubling, size(0)),
			func() (*Pattern, error) { return Dissemination(p) },
			func() (sched.Schedule, error) { return StreamDissemination(p) }},
		"allreduce": {SemAllReduce, circulantRule(doublings, doubling, size(96)),
			func() (*Pattern, error) { return AllReduce(p, 96) },
			func() (sched.Schedule, error) { return StreamAllReduce(p, 96) }},
		"allgather": {SemAllGather, circulantRule(doublings, doubling, func(s int) int { return 96 << s }),
			func() (*Pattern, error) { return AllGather(p, 96) },
			func() (sched.Schedule, error) { return StreamAllGather(p, 96) }},
		"allgather-ring": {SemAllGather, circulantRule(func(p int) int { return p - 1 }, size(1), size(64)),
			func() (*Pattern, error) { return AllGatherRing(p, 64) },
			func() (sched.Schedule, error) { return StreamAllGatherRing(p, 64) }},
		"broadcast": {SemBroadcast, binomialRule(root, 96, false),
			func() (*Pattern, error) { return Broadcast(p, root, 96) },
			func() (sched.Schedule, error) { return StreamBroadcast(p, root, 96) }},
		"reduce": {SemReduce, binomialRule(root, 96, true),
			func() (*Pattern, error) { return Reduce(p, root, 96) },
			func() (sched.Schedule, error) { return StreamReduce(p, root, 96) }},
		"total-exchange": {SemTotalExchange, circulantRule(func(p int) int { return p - 1 }, func(s int) int { return s + 1 }, size(64)),
			func() (*Pattern, error) { return TotalExchange(p, 64) },
			func() (sched.Schedule, error) { return StreamTotalExchange(p, 64) }},
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

// TestStreamGeneratorsMatchPatterns holds every collective's Pattern and its
// streamed twin to the collective's edge rule — stage structure, edge order
// and payload sizes — and, through the evaluator, to bit-identical virtual
// times, across odd, power-of-two and non-power-of-two process counts.
func TestStreamGeneratorsMatchPatterns(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 12, 13, 16} {
		m := engineMachine(t, p, true)
		for name, g := range generators(p, p/2) {
			pat, err := g.pattern()
			if err != nil {
				t.Fatalf("p=%d %s pattern: %v", p, name, err)
			}
			stream, err := g.stream()
			if err != nil {
				t.Fatalf("p=%d %s stream: %v", p, name, err)
			}
			ref := ruleSchedule(p, g.rule)
			sameEdges(t, fmt.Sprintf("p=%d %s pattern", p, name), ref, pat)
			sameEdges(t, fmt.Sprintf("p=%d %s stream", p, name), ref, stream)

			resPat, err := sched.RunSchedule(context.Background(), m, pat, 2, simnet.DefaultOptions())
			if err != nil {
				t.Fatalf("p=%d %s pattern run: %v", p, name, err)
			}
			resStream, err := sched.RunSchedule(context.Background(), m, stream, 2, simnet.DefaultOptions())
			if err != nil {
				t.Fatalf("p=%d %s stream run: %v", p, name, err)
			}
			for r := range resPat.Times {
				if resPat.Times[r] != resStream.Times[r] {
					t.Errorf("p=%d %s rank %d: pattern %v, stream %v", p, name, r, resPat.Times[r], resStream.Times[r])
				}
			}
			if resPat.Messages != resStream.Messages || resPat.Bytes != resStream.Bytes {
				t.Errorf("p=%d %s traffic: pattern %d/%d, stream %d/%d",
					p, name, resPat.Messages, resPat.Bytes, resStream.Messages, resStream.Bytes)
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
		if pat.Sym != sched.SymCirculant {
			t.Errorf("p=%d: ring allgather lost its circulant hint", p)
		}
	}
}
