package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"testing"
	"time"

	"hbsp/fault"
	"hbsp/sched"
	"hbsp/sim"
)

// TestSweepStopsAtFirstFailingPoint holds a sweep to its error line: the
// third point (P = 8) cannot host the slowdown on rank 12, so the stream is
// two point lines and the invalid_fault line, and the P = 64 point after it is
// neither evaluated nor cached — three points served, two of them misses.
func TestSweepStopsAtFirstFailingPoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, data := predict(t, ts, `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"allreduce","bytes":64},`+
		`"faults":{"Slowdowns":[{"Rank":12,"Factor":2}]},"sweep":{"procs":[16,32,8,64]}}`)
	lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	if resp.StatusCode != 200 || len(lines) != 3 {
		t.Fatalf("status %d, %d lines, want 200 and 3:\n%s", resp.StatusCode, len(lines), data)
	}
	for i, procs := range []int{16, 32} {
		var p PredictPoint
		if err := json.Unmarshal(lines[i], &p); err != nil || p.Procs != procs || p.MakeSpan <= 0 {
			t.Fatalf("line %d: %s (%v), want the P=%d point", i, lines[i], err, procs)
		}
	}
	var e apiError
	if err := json.Unmarshal(lines[2], &e); err != nil || e.Err.Code != "invalid_fault" {
		t.Fatalf("last line %s (%v), want the invalid_fault error", lines[2], err)
	}
	if m := s.Metrics(); m.Points != 3 || m.CacheMisses != 2 {
		t.Errorf("points %d, cache misses %d; want 3 and 2 (nothing after the error line)", m.Points, m.CacheMisses)
	}
}

// TestSweptMatchesSession pins the bit-identity contract of the swept route
// at the server layer: for every eligible point — including fault plans,
// non-default seeds, per-rank vectors and scaled profiles — the rendered
// NDJSON bytes of evaluateSwept equal those of the session evaluation it
// replaced, twice over, so the second evaluator runs on an arena the first
// gave back.
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
				if routeOf(&req.Options, &w, rp) != routeSwept {
					t.Fatalf("point unexpectedly not routed to the sweep path")
				}

				sres, rec, err := s.evaluateSession(ctx, &req, rp, &w, pt, seed, time.Time{})
				if err != nil {
					t.Fatalf("session evaluation: %v", err)
				}
				want, err := s.renderPoint(&req, rp, &w, pt, seed, sres, rec)
				if err != nil {
					t.Fatal(err)
				}

				// Both swept evaluations must render to the session bytes.
				for _, pass := range []string{"first", "second"} {
					res, _, err := s.evaluateSwept(ctx, &req, rp, &w, pt, seed, time.Time{})
					if err != nil {
						t.Fatalf("%s swept evaluation: %v", pass, err)
					}
					got, err := s.renderPoint(&req, rp, &w, pt, seed, res, nil)
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

// TestUploadSweptMatchesSession is TestSweptMatchesSession for an uploaded
// machine — asymmetric, ranks sharing NICs: every collective kind × acks on
// and off × with and without a fault plan renders, through evaluateSwept
// (twice, then once more after a point on a different upload), the bytes the
// session renders. Over HTTP the route changes nothing a client or /metrics
// can see: a miss, then a hit, one evaluation, byte-identical bodies.
func TestUploadSweptMatchesSession(t *testing.T) {
	const p = 9
	s, ts := newTestServer(t, Config{})
	spec := asymmetricUpload(t, p)
	other := asymmetricUpload(t, p)
	other.SelfOverhead = 2e-7 // another fingerprint, the same shape
	plan := &fault.Plan{Slowdowns: []fault.Slowdown{{Rank: 3, Factor: 2}}}
	ctx := context.Background()
	for _, w := range []WorkloadSpec{
		{Kind: "barrier"}, {Kind: "barrier", Variant: "tree"}, {Kind: "barrier", Variant: "linear"},
		{Kind: "broadcast", Root: 2, Bytes: 64}, {Kind: "reduce", Root: 5, Bytes: 64},
		{Kind: "allreduce", Bytes: 256}, {Kind: "allgather", Bytes: 32}, {Kind: "totalexchange", Bytes: 64},
	} {
		for _, ack := range []bool{true, false} {
			for _, faults := range []*fault.Plan{nil, plan} {
				ack := ack
				req := PredictRequest{Profile: ProfileSpec{Matrices: spec}, Workload: w, Procs: p, Faults: faults,
					Options: OptionsSpec{AckSends: &ack, PerRank: true}}
				name := fmt.Sprintf("%s%s/ack=%t/faults=%t", w.Kind, w.Variant, ack, faults != nil)
				body, err := json.Marshal(&req)
				if err != nil {
					t.Fatal(err)
				}
				if err := normalizeOptions(&req.Options); err != nil {
					t.Fatal(err)
				}
				w := w
				if err := normalizeWorkload(&w, p); err != nil {
					t.Fatal(err)
				}
				rp, err := s.resolveProfile(&req.Profile, ScaleSpec{}, p)
				if err != nil {
					t.Fatal(err)
				}
				if routeOf(&req.Options, &w, rp) != routeSwept {
					t.Fatalf("%s: not routed to the sweep path", name)
				}
				pt := point{procs: p}
				sres, rec, err := s.evaluateSession(ctx, &req, rp, &w, pt, 1, time.Time{})
				if err != nil {
					t.Fatalf("%s: session evaluation: %v", name, err)
				}
				want, err := s.renderPoint(&req, rp, &w, pt, 1, sres, rec)
				if err != nil {
					t.Fatal(err)
				}
				for _, pass := range []string{"first", "second", "after another upload"} {
					if pass == "after another upload" {
						orp, err := s.resolveMatrices(other, p)
						if err != nil {
							t.Fatal(err)
						}
						if _, _, err := s.evaluateSwept(ctx, &req, orp, &w, pt, 1, time.Time{}); err != nil {
							t.Fatal(err)
						}
					}
					res, _, err := s.evaluateSwept(ctx, &req, rp, &w, pt, 1, time.Time{})
					if err != nil {
						t.Fatalf("%s: %s swept evaluation: %v", name, pass, err)
					}
					got, err := s.renderPoint(&req, rp, &w, pt, 1, res, nil)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(got, want) {
						t.Fatalf("%s: %s swept point diverged from the session evaluation\nswept:   %s\nsession: %s", name, pass, got, want)
					}
				}

				// The same point over HTTP, against what the session rendered.
				before := s.Metrics()
				for _, how := range []string{"miss", "hit"} {
					resp, data := predict(t, ts, string(body))
					if resp.StatusCode != 200 || resp.Header.Get("X-Hbspd-Cache") != how || !bytes.Equal(data, want) {
						t.Fatalf("%s: status %d, X-Hbspd-Cache %q (want %s)\n got %s\nwant %s",
							name, resp.StatusCode, resp.Header.Get("X-Hbspd-Cache"), how, data, want)
					}
				}
				after := s.Metrics()
				if d := [...]int64{after.Requests - before.Requests, after.Points - before.Points, after.CacheMisses - before.CacheMisses,
					after.CacheHits - before.CacheHits, after.Eval.Count - before.Eval.Count}; d != [...]int64{2, 2, 1, 1, 1} {
					t.Fatalf("%s: requests, points, misses, hits, evaluations moved by %v, want [2 2 1 1 1]", name, d)
				}
			}
		}
	}
	if got := s.Metrics().Errors; got != (MetricsSnapshot{}).Errors {
		t.Fatalf("errors counted: %+v", got)
	}
}

// TestAsymmetricMatrixAckLeg pins the ack's return leg on an uploaded
// machine whose latency matrix is not symmetric: with acknowledged sends the
// completion bills latency[dst][src], and the concurrent engine, the direct
// engine (the sweep evaluator behind the API, and a whole-run RunSchedule)
// and a sweep evaluator — fresh, and rebased from an unrelated point on a machine
// of a different rank count — all report the same per-rank times.
func TestAsymmetricMatrixAckLeg(t *testing.T) {
	const p = 6
	spec := asymmetricUpload(t, p)
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
	pat, err := s.schedule(&WorkloadSpec{Kind: "totalexchange", Bytes: 64}, p)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	o := sim.DefaultOptions()
	o.AckSends = true
	res, err := sched.RunSchedule(ctx, rp.machine, pat, 1, o)
	if err != nil {
		t.Fatal(err)
	}
	times["RunSchedule"] = res.Times
	other, err := s.resolveProfile(&ProfileSpec{Preset: "xeon-8x2x4"}, ScaleSpec{}, p+3)
	if err != nil {
		t.Fatal(err)
	}
	unrelated, err := s.schedule(&WorkloadSpec{Kind: "barrier", Variant: "dissemination"}, p+3)
	if err != nil {
		t.Fatal(err)
	}
	for name, base := range map[string]sim.Machine{"sweep/fresh": rp.machine, "sweep/rebased": other.machine} {
		sw, err := sched.NewSweepEvaluator(base, sched.SweepOptions{AckSends: true})
		if err != nil {
			t.Fatal(err)
		}
		if base != rp.machine {
			if _, err := sw.Run(ctx, nil, unrelated, 1); err != nil {
				t.Fatal(err)
			}
		}
		for point := 0; point < 2; point++ { // the second point reuses the arena
			if res, err = sw.Run(ctx, rp.machine, pat, 1); err != nil {
				t.Fatal(err)
			}
			times[fmt.Sprintf("%s/point%d", name, point)] = res.Times
		}
		if st := sw.Stats(); base != rp.machine && st.Rebases != 1 {
			t.Errorf("%s: %d rebases, want 1", name, st.Rebases)
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

// matrixOf builds a Matrix the only way there is: through its scanner.
func matrixOf(t testing.TB, rows [][]float64) Matrix {
	t.Helper()
	data, err := json.Marshal(rows)
	if err != nil {
		t.Fatal(err)
	}
	var m Matrix
	if err := m.UnmarshalJSON(data); err != nil {
		t.Fatal(err)
	}
	return m
}

// asymmetricUpload is a p-rank uploaded machine with no symmetry to lean on:
// lat[i][j] != lat[j][i], every row of every matrix different, and ranks
// sharing NICs at both ends.
func asymmetricUpload(t testing.TB, p int) *MatrixProfile {
	t.Helper()
	spec := &MatrixProfile{SelfOverhead: 1e-7, NIC: make([]int, p)}
	for i := range spec.NIC {
		spec.NIC[i] = max(0, min(i-1, p-3)) // 0 0 1 2 … p-3 p-3
	}
	var lat, beta, gap, ovh [][]float64
	for i := 0; i < p; i++ {
		l, b, g, o := make([]float64, p), make([]float64, p), make([]float64, p), make([]float64, p)
		for j := 0; j < p; j++ {
			if i != j {
				l[j] = float64(5+3*i+11*j) * 1e-6
				b[j] = float64(1+i+2*j) * 1e-9
				g[j] = float64(1+j) * 1e-6
				o[j] = float64(2+i) * 1e-7
			}
		}
		lat, beta, gap, ovh = append(lat, l), append(beta, b), append(gap, g), append(ovh, o)
	}
	spec.Latency, spec.Beta = matrixOf(t, lat), matrixOf(t, beta)
	spec.Gap, spec.Overhead = matrixOf(t, gap), matrixOf(t, ovh)
	return spec
}

// panicMachine prices no pair: its Pair call panics, standing in for a bug
// somewhere below the handler.
type panicMachine struct{ sim.Machine }

func (panicMachine) Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	panic("pair pricing bug")
}

// TestEvaluationPanicCostsOneRequest pins what a panic below the handler may
// cost: that request answers 500 / internal in the documented error shape,
// and the server keeps serving — /healthz, and the identical request once
// the machine prices again.
func TestEvaluationPanicCostsOneRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	wantInternal := func(tag string, resp *http.Response, data []byte) {
		t.Helper()
		var e apiError
		if err := json.Unmarshal(data, &e); err != nil || resp.StatusCode != 500 || e.Err.Code != "internal" || e.Err.Status != 500 {
			t.Fatalf("%s: status %d, body %s (decode: %v); want 500 with code internal", tag, resp.StatusCode, data, err)
		}
	}

	// Both halves run on the handler's goroutine, on a cached machine whose
	// pricing call panics: a program workload, and a collective on the swept
	// route.
	for _, c := range []struct {
		name, body string
		procs      int
	}{
		{"program", `{"profile":{"preset":"xeon-8x2x4"},"procs":2,"workload":{"kind":"program","ranks":[` +
			`[{"op":"isend","to":1,"bytes":8},{"op":"wait","req":0}],[{"op":"irecv","from":0},{"op":"wait","req":0}]]}}`, 2},
		{"swept point", `{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"allreduce","bytes":64},"procs":8}`, 8},
	} {
		rp, err := s.resolveProfile(&ProfileSpec{Preset: "xeon-8x2x4"}, ScaleSpec{}, c.procs)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprintf("machine/%s/p%d", rp.fingerprint, c.procs)
		s.machines.Put(key, &resolvedProfile{machine: panicMachine{rp.machine}, fingerprint: rp.fingerprint})
		resp, data := predict(t, ts, c.body)
		wantInternal(c.name+" on a panicking machine", resp, data)
		s.machines.Put(key, rp)
		if resp, data = predict(t, ts, c.body); resp.StatusCode != 200 {
			t.Fatalf("%s after the panic: status %d: %s", c.name, resp.StatusCode, data)
		}
	}

	if got := s.Metrics().Errors.Internal; got != 2 {
		t.Errorf("errors.internal = %d, want 2", got)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != 200 {
		t.Errorf("/healthz status %d after the panics, want 200", hresp.StatusCode)
	}
}

// TestSplitWalkPanicCostsOneRequest holds a panic in a worker of the split
// per-rank walk to the same bar: at procs 2,048 on two cores a swept point's
// stages are walked on worker goroutines, and a panic there must still reach
// evaluate's recover — one 500 / internal reply, not a dead daemon — and the
// next request answers 200.
func TestSplitWalkPanicCostsOneRequest(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const p = 2048
	s, ts := newTestServer(t, Config{})
	rp, err := s.resolveProfile(&ProfileSpec{Preset: "xeon-cluster"}, ScaleSpec{}, p)
	if err != nil {
		t.Fatal(err)
	}
	key := fmt.Sprintf("machine/%s/p%d", rp.fingerprint, p)
	s.machines.Put(key, &resolvedProfile{machine: panicMachine{rp.machine}, fingerprint: rp.fingerprint})
	body := `{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"allreduce","bytes":64},"procs":2048}`
	resp, data := predict(t, ts, body)
	var e apiError
	if err := json.Unmarshal(data, &e); err != nil || resp.StatusCode != 500 || e.Err.Code != "internal" {
		t.Fatalf("a panicking worker: status %d, body %s (decode: %v); want 500 with code internal", resp.StatusCode, data, err)
	}
	s.machines.Put(key, rp)
	if resp, data = predict(t, ts, body); resp.StatusCode != 200 {
		t.Fatalf("the request after the panic: status %d: %s", resp.StatusCode, data)
	}
}
