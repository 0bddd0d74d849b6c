package bsp

import (
	"bytes"
	"context"
	"fmt"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/fault"
	"hbsp/internal/kernels"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// scatterStatic is a generated static program: per superstep a process
// computes zero to two hash-drawn intervals — plain seconds (zero included: a
// Compute call that only draws noise) or a kernel over zero to three cells
// (zero: no call at all) — puts zero to three hash-drawn sizes to as many
// hash-drawn processes, itself among them, and computes zero to two intervals
// more; after the last superstep it computes its closing intervals. That is
// h-relations with idle senders, several messages per pair's FIFO, receivers
// of many and empty puts.
func scatterStatic(steps int, salt uint64) *Static {
	draw := func(step, pid, k int) uint64 {
		x := salt + uint64(step)*0x9e3779b97f4a7c15 + uint64(pid)*0xbf58476d1ce4e5b9 + uint64(k)*0x94d049bb133111eb
		x ^= x >> 31
		x *= 0xd6e8feb86659fd93
		return x ^ x>>29
	}
	computes := func(step, pid, k int, ops sched.Ops) {
		for i, n := 0, int(draw(step, pid, k)%3); i < n; i++ {
			switch x := draw(step, pid, k+1+i); x % 3 {
			case 0:
				ops.Compute(sched.Work{Seconds: 1e-6 * float64(x%5)})
			case 1:
				ops.Compute(sched.Work{Kernel: &kernels.Copy, Cells: int(x % 4)})
			default:
				ops.Compute(sched.Work{Kernel: &kernels.Stencil5, Cells: int(x % 4 * 1000)})
			}
		}
	}
	return &Static{
		Supersteps: steps,
		Step: func(step, pid, p int, ops sched.Ops) {
			computes(step, pid, 10, ops)
			if step == steps {
				return
			}
			for k, n := 0, int(draw(step, pid, 0)%4); k < n; k++ {
				ops.Put(int(draw(step, pid, 1+k)%uint64(p)), int(draw(step, pid, 5+k)%4))
			}
			computes(step, pid, 20, ops)
		},
	}
}

// TestRunStaticMatchesReplay holds the direct evaluation of a static program
// to replaying it on a Ctx per process, on the gate-evaluated default engine
// and on the concurrent one: per-rank times, makespan, traffic, the collapse
// diagnostic (the gate's) and, traced, the recording event for event — across
// rank counts, machines, synchronizers, ack modes and a fault plan of every
// rule kind.
func TestRunStaticMatchesReplay(t *testing.T) {
	ctx := context.Background()
	plan := &fault.Plan{Seed: 5,
		Slowdowns: []fault.Slowdown{{Rank: 0, Factor: 1.5, Jitter: 0.2}},
		Links:     []fault.LinkRule{{Src: -1, Dst: 0, Class: -1, LatencyFactor: 2, BetaFactor: 2}},
		FailStops: []fault.FailStop{{Rank: 0, FailAt: 3e-5, Restart: 1e-4, Checkpoint: 1e-5}}}
	spill := func(rec *trace.Recorder) []byte {
		tr, err := rec.Trace()
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := trace.WriteSpill(&buf, tr); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, p := range []int{1, 2, 5, 16, 33} {
		xeon, err := platform.Xeon8x2x4().Machine(min(p, 64))
		if err != nil {
			t.Fatal(err)
		}
		flat, err := platform.FlatClusterMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		pattern, err := barrier.Dissemination(p)
		if err != nil {
			t.Fatal(err)
		}
		overPattern, err := NewScheduleSynchronizer(pattern)
		if err != nil {
			t.Fatal(err)
		}
		for mi, m := range []*platform.Machine{xeon.WithRunSeed(11), flat} {
			for si, sync := range []Synchronizer{nil, overPattern} {
				for _, ack := range []bool{true, false} {
					for _, faults := range []*fault.Plan{nil, plan} {
						for _, traced := range []bool{false, true} {
							tag := fmt.Sprintf("P=%d machine=%d sync=%d ack=%t faults=%t traced=%t", p, mi, si, ack, faults != nil, traced)
							sp := scatterStatic(4, uint64(p*7+mi))
							options := func(engine simnet.Engine) (simnet.Options, *trace.Recorder) {
								o := simnet.DefaultOptions()
								o.AckSends, o.Faults, o.Engine = ack, faults, engine
								if traced {
									o.Recorder = trace.NewRecorder()
								}
								return o, o.Recorder
							}
							o, rec := options(simnet.EngineAuto)
							got, err := RunStatic(ctx, m, sync, sp, o)
							if err != nil {
								t.Fatalf("%s: RunStatic: %v", tag, err)
							}
							for _, engine := range []simnet.Engine{simnet.EngineAuto, simnet.EngineConcurrent} {
								o, wantRec := options(engine)
								want, err := RunContext(ctx, m, RunConfig{Sync: sync, Options: &o}, sp.Program())
								if err != nil {
									t.Fatalf("%s engine %d: replay: %v", tag, engine, err)
								}
								for r := range want.Times {
									if got.Times[r] != want.Times[r] {
										t.Fatalf("%s engine %d rank %d: direct %v, replay %v", tag, engine, r, got.Times[r], want.Times[r])
									}
								}
								if got.MakeSpan != want.MakeSpan || got.Messages != want.Messages || got.Bytes != want.Bytes {
									t.Fatalf("%s engine %d: direct %v/%d/%d, replay %v/%d/%d", tag, engine,
										got.MakeSpan, got.Messages, got.Bytes, want.MakeSpan, want.Messages, want.Bytes)
								}
								if engine == simnet.EngineAuto && got.Collapse != want.Collapse {
									t.Fatalf("%s: collapse direct %+v, gate %+v", tag, got.Collapse, want.Collapse)
								}
								if traced && !bytes.Equal(spill(rec), spill(wantRec)) {
									t.Fatalf("%s engine %d: recordings differ", tag, engine)
								}
							}
						}
					}
				}
			}
		}
	}
}
