package barrier

import (
	"context"
	"fmt"
	"testing"

	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

// streamPairs enumerates every streaming generator next to the dense pattern
// it must match stage for stage and byte for byte.
func streamPairs(t *testing.T, p int) map[string][2]func() (sched.Schedule, error) {
	t.Helper()
	asSched := func(pat *Pattern, err error) (sched.Schedule, error) {
		if err != nil {
			return nil, err
		}
		return pat, nil
	}
	return map[string][2]func() (sched.Schedule, error){
		"dissemination": {
			func() (sched.Schedule, error) { return asSched(Dissemination(p)) },
			func() (sched.Schedule, error) { return StreamDissemination(p) },
		},
		"allreduce": {
			func() (sched.Schedule, error) { return asSched(AllReduce(p, 96)) },
			func() (sched.Schedule, error) { return StreamAllReduce(p, 96) },
		},
		"allgather": {
			func() (sched.Schedule, error) { return asSched(AllGather(p, 96)) },
			func() (sched.Schedule, error) { return StreamAllGather(p, 96) },
		},
		"allgather-ring": {
			func() (sched.Schedule, error) { return asSched(AllGatherRing(p, 64)) },
			func() (sched.Schedule, error) { return StreamAllGatherRing(p, 64) },
		},
		"broadcast": {
			func() (sched.Schedule, error) { return asSched(Broadcast(p, 0, 96)) },
			func() (sched.Schedule, error) { return StreamBroadcast(p, 0, 96) },
		},
		"broadcast-root2": {
			func() (sched.Schedule, error) { return asSched(Broadcast(p, 2%p, 96)) },
			func() (sched.Schedule, error) { return StreamBroadcast(p, 2%p, 96) },
		},
		"reduce": {
			func() (sched.Schedule, error) { return asSched(Reduce(p, 0, 96)) },
			func() (sched.Schedule, error) { return StreamReduce(p, 0, 96) },
		},
		"total-exchange": {
			func() (sched.Schedule, error) { return asSched(TotalExchange(p, 64)) },
			func() (sched.Schedule, error) { return StreamTotalExchange(p, 64) },
		},
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

// TestStreamGeneratorsMatchPatterns pins every streaming generator against
// its dense pattern: identical stage structure (edges and payload sizes) and,
// through the evaluator, bit-identical virtual times — across odd,
// power-of-two and non-power-of-two process counts.
func TestStreamGeneratorsMatchPatterns(t *testing.T) {
	for _, p := range []int{1, 2, 3, 5, 8, 12, 13, 16} {
		m := engineMachine(t, p, true)
		for name, pair := range streamPairs(t, p) {
			dense, err := pair[0]()
			if err != nil {
				t.Fatalf("p=%d %s dense: %v", p, name, err)
			}
			stream, err := pair[1]()
			if err != nil {
				t.Fatalf("p=%d %s stream: %v", p, name, err)
			}
			if stream.NumProcs() != dense.NumProcs() || stream.NumStages() != dense.NumStages() {
				t.Fatalf("p=%d %s: stream %dx%d stages, dense %dx%d",
					p, name, stream.NumProcs(), stream.NumStages(), dense.NumProcs(), dense.NumStages())
			}
			for s := 0; s < dense.NumStages(); s++ {
				ds, ss := dense.StageAt(s), stream.StageAt(s)
				for i := 0; i < p; i++ {
					if fmt.Sprint(ss.Out[i]) != fmt.Sprint(ds.Out[i]) || fmt.Sprint(ss.In[i]) != fmt.Sprint(ds.In[i]) {
						t.Fatalf("p=%d %s stage %d rank %d: stream %v/%v, dense %v/%v",
							p, name, s, i, ss.Out[i], ss.In[i], ds.Out[i], ds.In[i])
					}
					var db, sb []int
					if ds.OutBytes != nil {
						db = ds.OutBytes[i]
					}
					if ss.OutBytes != nil {
						sb = ss.OutBytes[i]
					}
					if fmt.Sprint(sb) != fmt.Sprint(db) && !(len(sb) == 0 && len(db) == 0) {
						t.Fatalf("p=%d %s stage %d rank %d: stream bytes %v, dense bytes %v", p, name, s, i, sb, db)
					}
				}
			}
			resDense, err := sched.RunSchedule(context.Background(), m, dense, 2, simnet.DefaultOptions())
			if err != nil {
				t.Fatalf("p=%d %s dense run: %v", p, name, err)
			}
			resStream, err := sched.RunSchedule(context.Background(), m, stream, 2, simnet.DefaultOptions())
			if err != nil {
				t.Fatalf("p=%d %s stream run: %v", p, name, err)
			}
			for r := range resDense.Times {
				if resDense.Times[r] != resStream.Times[r] {
					t.Errorf("p=%d %s rank %d: dense %v, stream %v", p, name, r, resDense.Times[r], resStream.Times[r])
				}
			}
			if resDense.Messages != resStream.Messages || resDense.Bytes != resStream.Bytes {
				t.Errorf("p=%d %s traffic: dense %d/%d, stream %d/%d",
					p, name, resDense.Messages, resDense.Bytes, resStream.Messages, resStream.Bytes)
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
