package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"hbsp/fault"
	"hbsp/sched"
	"hbsp/sim"
)

// TestSweepReuseMetrics asserts that the /metrics reuse counters move while an
// NDJSON sweep streams: a scale sweep keeps the schedule structure fixed, so
// every point after the first replays the pooled evaluator's memoized term
// tape (sweepPointsReused) and its cached partition decision
// (partitionsReused).
func TestSweepReuseMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	before := s.Metrics()

	body := `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"totalexchange","bytes":64},"procs":8,` +
		`"sweep":{"scale":[{},{"latency":2},{"latency":4},{"gap":2}]}}`
	resp, data := predict(t, ts, body)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if len(lines) != 4 {
		t.Fatalf("got %d lines, want 4:\n%s", len(lines), data)
	}
	for _, line := range lines {
		var p PredictPoint
		if err := json.Unmarshal(line, &p); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if p.MakeSpan <= 0 {
			t.Fatalf("non-positive makespan in %q", line)
		}
	}

	after := s.Metrics()
	if after.SweepPointsReused <= before.SweepPointsReused {
		t.Errorf("sweepPointsReused did not move: before %d, after %d",
			before.SweepPointsReused, after.SweepPointsReused)
	}
	if after.PartitionsReused <= before.PartitionsReused {
		t.Errorf("partitionsReused did not move: before %d, after %d",
			before.PartitionsReused, after.PartitionsReused)
	}

	// The counters are served over HTTP too; spot-check the JSON field names.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var snap MetricsSnapshot
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatalf("/metrics decode: %v", err)
	}
	if snap.SweepPointsReused != after.SweepPointsReused {
		t.Errorf("/metrics sweepPointsReused = %d, want %d", snap.SweepPointsReused, after.SweepPointsReused)
	}
}

// TestSweptMatchesSession pins the bit-identity contract of the pooled
// sweep-evaluator path at the server layer: for every eligible point —
// including fault plans, non-default seeds, per-rank vectors and scaled
// profiles — the rendered NDJSON bytes of evaluateSwept equal those of the
// session evaluation it replaced, on both a cold tape and a warm replay.
func TestSweptMatchesSession(t *testing.T) {
	s := New(Config{})
	seed5 := int64(5)
	perRank := true
	cases := []struct {
		name string
		req  PredictRequest
	}{
		{"barrier_tree", PredictRequest{
			Profile:  ProfileSpec{Preset: "xeon-8x2x4"},
			Workload: WorkloadSpec{Kind: "barrier", Variant: "tree"},
			Procs:    16,
		}},
		{"allreduce_perrank", PredictRequest{
			Profile:  ProfileSpec{Preset: "xeon-8x2x4"},
			Workload: WorkloadSpec{Kind: "allreduce", Bytes: 256},
			Procs:    16,
			Options:  OptionsSpec{PerRank: perRank},
		}},
		{"broadcast_rooted_seeded", PredictRequest{
			Profile:  ProfileSpec{Preset: "flat-cluster"},
			Workload: WorkloadSpec{Kind: "broadcast", Root: 3, Bytes: 64},
			Procs:    16,
			Seed:     &seed5,
		}},
		{"totalexchange_faults", PredictRequest{
			Profile:  ProfileSpec{Preset: "xeon-8x2x4"},
			Workload: WorkloadSpec{Kind: "totalexchange", Bytes: 64},
			Procs:    16,
			Faults: &fault.Plan{Slowdowns: []fault.Slowdown{
				{Rank: 3, Factor: 2},
			}},
			Options: OptionsSpec{PerRank: perRank},
		}},
		{"allgather_scaled", PredictRequest{
			Profile:  ProfileSpec{Preset: "xeon-8x2x4"},
			Workload: WorkloadSpec{Kind: "allgather", Bytes: 32},
			Procs:    8,
			Sweep:    &SweepSpec{Scale: []ScaleSpec{{Latency: 2, Gap: 1.5}}},
		}},
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req := tc.req
			if err := normalizeOptions(&req.Options); err != nil {
				t.Fatal(err)
			}
			pts, err := expandPoints(&req)
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range pts {
				w := req.Workload
				if pt.bytes != 0 {
					w.Bytes = pt.bytes
				}
				if err := normalizeWorkload(&w, pt.procs); err != nil {
					t.Fatal(err)
				}
				rp, err := s.resolveProfile(&req.Profile, pt.scale, pt.procs)
				if err != nil {
					t.Fatal(err)
				}
				seed := int64(1)
				if req.Seed != nil {
					seed = *req.Seed
				}
				if !s.sweptEligible(&req, rp, &w) {
					t.Fatalf("point unexpectedly ineligible for the sweep path")
				}

				sres, perIter, rec, err := s.evaluateSession(ctx, &req, rp, &w, pt, seed, time.Time{})
				if err != nil {
					t.Fatalf("session evaluation: %v", err)
				}
				want, err := s.renderPoint(&req, rp, &w, pt, seed, sres, perIter, rec)
				if err != nil {
					t.Fatal(err)
				}

				// Cold (tape build) and warm (replay) swept evaluations must
				// both render to the session bytes.
				for _, pass := range []string{"cold", "warm"} {
					res, err := s.evaluateSwept(ctx, &req, rp, &w, pt, seed, time.Time{})
					if err != nil {
						t.Fatalf("%s swept evaluation: %v", pass, err)
					}
					got, err := s.renderPoint(&req, rp, &w, pt, seed, res, 0, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s swept point diverged from the session evaluation\nswept:   %s\nsession: %s", pass, got, want)
					}
				}
			}
		})
	}
}

// TestAsymmetricMatrixAckLeg pins the ack's return leg on an uploaded
// machine whose latency matrix is not symmetric: with acknowledged sends the
// completion bills latency[dst][src], and the concurrent engine, the direct
// engine (gate-inline through the API, and a whole-run RunSchedule) and a
// sweep evaluator with taping on and off all report the same per-rank times.
func TestAsymmetricMatrixAckLeg(t *testing.T) {
	const p = 6
	spec := &MatrixProfile{SelfOverhead: 1e-7, NIC: []int{0, 0, 1, 2, 3, 3}}
	for i := 0; i < p; i++ {
		lat, beta, gap, ovh := make([]float64, p), make([]float64, p), make([]float64, p), make([]float64, p)
		for j := 0; j < p; j++ {
			if i != j {
				lat[j] = float64(5+3*i+11*j) * 1e-6 // lat[i][j] != lat[j][i]
				beta[j] = float64(1+i+2*j) * 1e-9
				gap[j] = float64(1+j) * 1e-6
				ovh[j] = float64(2+i) * 1e-7
			}
		}
		spec.Latency, spec.Beta = append(spec.Latency, lat), append(spec.Beta, beta)
		spec.Gap, spec.Overhead = append(spec.Gap, gap), append(spec.Overhead, ovh)
	}
	s, ts := newTestServer(t, Config{})
	ack := true
	times := map[string][]float64{}
	for _, engine := range []string{"auto", "concurrent"} {
		body, err := json.Marshal(PredictRequest{
			Profile:  ProfileSpec{Matrices: spec},
			Workload: WorkloadSpec{Kind: "totalexchange", Bytes: 64},
			Procs:    p,
			Options:  OptionsSpec{Engine: engine, PerRank: true, AckSends: &ack},
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, data := predict(t, ts, string(body))
		var pt PredictPoint
		if err := json.Unmarshal(data, &pt); err != nil || resp.StatusCode != 200 {
			t.Fatalf("engine %s: status %d, %v in %s", engine, resp.StatusCode, err, data)
		}
		times["api/"+engine] = pt.PerRank
	}

	rp, err := s.resolveMatrices(spec, p)
	if err != nil {
		t.Fatal(err)
	}
	pat, err := s.collectivePattern("totalexchange", p, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	o := sim.DefaultOptions()
	o.AckSends = true
	res, err := sched.RunSchedule(ctx, rp.machine, pat.ScheduleView(), 1, o)
	if err != nil {
		t.Fatal(err)
	}
	times["RunSchedule"] = res.Times
	for name, budget := range map[string]int64{"sweep/taped": 0, "sweep/live": -1} {
		sw, err := sched.NewSweepEvaluator(rp.machine, sched.SweepOptions{AckSends: true, MemoBudget: budget})
		if err != nil {
			t.Fatal(err)
		}
		for point := 0; point < 2; point++ { // the second point is the replay
			if res, err = sw.Run(ctx, nil, pat.ScheduleView(), 1); err != nil {
				t.Fatal(err)
			}
			times[fmt.Sprintf("%s/point%d", name, point)] = res.Times
		}
		sw.Release()
	}
	want := times["api/concurrent"]
	for path, got := range times {
		if len(got) != p {
			t.Fatalf("%s: %d per-rank times, want %d", path, len(got), p)
		}
		for r := range want {
			if got[r] != want[r] {
				t.Errorf("%s rank %d: %v, concurrent engine %v", path, r, got[r], want[r])
			}
		}
	}
}
