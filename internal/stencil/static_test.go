package stencil

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"hbsp/internal/bsp"
	"hbsp/internal/fault"
	"hbsp/internal/platform"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// TestStaticMatchesRealBody is the oracle of the static description: the BSP
// body that sweeps real grids, run on the goroutine engine, against Static
// replayed on a Ctx per rank and priced by bsp.RunStatic — per-rank times,
// makespan, traffic and, traced, the recording byte for byte. The cases are
// drawn over grid, rank count, iterations, overlap, acks and a fault plan of
// every rule kind on a noisy seeded machine, and include P=1 (no neighbour,
// no put), blocks of a single row or a single cell, and blocks without a deep
// interior (no early or late compute call).
func TestStaticMatchesRealBody(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(32))
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
	type shape struct{ n, p int }
	shapes := []shape{{3, 1}, {17, 1}, {4, 16}, {3, 3}, {11, 33}, {5, 6}, {8, 64}}
	for len(shapes) < 48 {
		p := []int{2, 3, 6, 16, 33, 64}[r.Intn(6)]
		d, err := Decompose(64, p)
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, shape{max(3, d.Py) + r.Intn(40), p})
	}
	for i, sh := range shapes {
		m, err := platform.Xeon8x2x4().Machine(sh.p)
		if err != nil {
			t.Fatal(err)
		}
		m = m.WithRunSeed(int64(1 + i))
		plans := []*fault.Plan{nil,
			{Seed: int64(i), Slowdowns: []fault.Slowdown{{Rank: r.Intn(sh.p), Factor: 1.5, Jitter: 0.2}}},
			{Links: []fault.LinkRule{{Src: -1, Dst: r.Intn(sh.p), Class: -1, LatencyFactor: 2, BetaFactor: 2}}},
			{FailStops: []fault.FailStop{{Rank: r.Intn(sh.p), FailAt: 3e-5, Restart: 1e-4, Checkpoint: 1e-5}}},
		}
		cfg := Config{N: sh.n, Iterations: 1 + r.Intn(3), C: 0.2}
		overlap := []float64{0, 0.5, 1}[i%3]
		ack, traced, plan := r.Intn(2) == 0, r.Intn(2) == 0, plans[i%len(plans)]
		tag := fmt.Sprintf("N=%d P=%d iterations=%d overlap=%g ack=%t traced=%t plan=%d",
			sh.n, sh.p, cfg.Iterations, overlap, ack, traced, i%len(plans))
		options := func(engine simnet.Engine) simnet.Options {
			o := simnet.DefaultOptions()
			o.AckSends, o.Faults, o.Engine = ack, plan, engine
			if traced {
				o.Recorder = trace.NewRecorder()
			}
			return o
		}

		body, err := BSPProgram(sh.p, cfg, overlap, nil)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		sp, err := Static(sh.p, cfg, overlap)
		if err != nil {
			t.Fatalf("%s: %v", tag, err)
		}
		wantOpts := options(simnet.EngineConcurrent)
		want, err := bsp.RunContext(ctx, m, bsp.RunConfig{Options: &wantOpts}, body)
		if err != nil {
			t.Fatalf("%s: real body: %v", tag, err)
		}
		for _, run := range []struct {
			name string
			run  func(o simnet.Options) (*simnet.Result, error)
		}{
			{"replay", func(o simnet.Options) (*simnet.Result, error) {
				return bsp.RunContext(ctx, m, bsp.RunConfig{Options: &o}, sp.Program())
			}},
			{"RunStatic", func(o simnet.Options) (*simnet.Result, error) { return bsp.RunStatic(ctx, m, nil, sp, o) }},
		} {
			o := options(simnet.EngineAuto)
			got, err := run.run(o)
			if err != nil {
				t.Fatalf("%s: %s: %v", tag, run.name, err)
			}
			for rank := range want.Times {
				if got.Times[rank] != want.Times[rank] {
					t.Fatalf("%s: %s rank %d: %v, real body %v", tag, run.name, rank, got.Times[rank], want.Times[rank])
				}
			}
			if got.MakeSpan != want.MakeSpan || got.Messages != want.Messages || got.Bytes != want.Bytes {
				t.Fatalf("%s: %s %v/%d/%d, real body %v/%d/%d", tag, run.name,
					got.MakeSpan, got.Messages, got.Bytes, want.MakeSpan, want.Messages, want.Bytes)
			}
			if traced && !bytes.Equal(spill(o.Recorder), spill(wantOpts.Recorder)) {
				t.Fatalf("%s: %s records other events than the real body", tag, run.name)
			}
		}
	}
}
