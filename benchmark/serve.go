package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"syscall"
	"time"

	"hbsp/server"
)

// setupReps is how often a run sets up; setup_s is the median. Several
// repetitions keep one slow exec or a cold page cache from reading as a
// set-up regression.
const setupReps = 5

// selfCPU is the harness's own user+system CPU time so far.
func selfCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// fetchMetrics reads the daemon's /metrics counters.
func fetchMetrics(base string) (server.MetricsSnapshot, error) {
	var snap server.MetricsSnapshot
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

// serveLists generates a server workload's set-up list and measured list.
func serveLists(workload string, seed int64, scale float64) (setup, ops []request) {
	switch workload {
	case "serve_hot":
		setup, ops = genServeHot(seed, scale)
		// The prefill sends each key once; those replies are the misses that
		// fill the cache.
		setup = append([]request(nil), setup...)
		for i := range setup {
			setup[i].Expect = "miss"
		}
	case "serve_cold":
		setup, ops = genServeCold(seed, scale)
	case "serve_sweep":
		setup, ops = genServeSweep(seed, scale)
	}
	return setup, ops
}

// setUpDaemon starts a daemon and sends it the set-up list.
func setUpDaemon(bin string, setup []request) (*daemon, error) {
	d, err := startDaemon(bin)
	if err != nil {
		return nil, err
	}
	for i, o := range runList(d.base, setup) {
		if o.err != nil {
			d.stop()
			return nil, fmt.Errorf("set-up request %d (%s): %w", i, setup[i].Class, o.err)
		}
	}
	return d, nil
}

// serveStretches is how many stretches the measured list is cut into at
// -seconds 10 (the count scales with the list), so that a stretch lasts about
// a quarter of a second.
const serveStretches = 40

// runServe measures one server workload against a child hbspd built from the
// checkout: set-up setupReps times over, then the whole list once, in
// stretches with a probe between them (speed.go). Every figure is taken over
// the whole list. It runs on the main goroutine (see startChild).
func runServe(bin string, res *runResult, scale float64) error {
	setup, ops := serveLists(res.Workload, res.Seed, scale)

	// Set-up: daemon exec → /healthz 200 → set-up list; the last daemon
	// serves the measured list.
	var d *daemon
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	var setups []float64
	for i := 0; i < setupReps; i++ {
		if d != nil {
			d.stop()
		}
		before, start := probe(), time.Now()
		var err error
		if d, err = setUpDaemon(bin, setup); err != nil {
			return err
		}
		raw := time.Since(start).Seconds()
		setups = append(setups, raw*speedOf(before, probe()))
	}

	pid := d.cmd.Process.Pid
	m0, err := fetchMetrics(d.base)
	if err != nil {
		return err
	}
	outs := make([]outcome, len(ops))
	speeds := make([]float64, len(ops)) // of each operation's stretch
	var log speedLog
	var cpu, clientCPU float64
	cs := newClients(d.base)
	before := probe()
	n := max(1, int(math.Round(serveStretches*scale)))
	for k := 0; k < n; k++ {
		a, b := k*len(ops)/n, (k+1)*len(ops)/n
		st0, err := readProcStats(pid)
		if err != nil {
			return err
		}
		self0, from := selfCPU(), time.Now()
		cs.run(ops[a:b], outs[a:b])
		to, self1 := time.Now(), selfCPU()
		st1, err := readProcStats(pid)
		if err != nil {
			return err
		}
		after := probe()
		sp := speedOf(before, after)
		before = after
		log = append(log, stretch{from.UnixNano(), to.UnixNano(), sp})
		cpu += (st1.cpuSeconds - st0.cpuSeconds) * sp
		clientCPU += (self1 - self0) * sp
		for i := a; i < b; i++ {
			speeds[i] = sp
		}
	}
	cs.close()
	wall, rawWall := log.seconds(log[0].from, log[len(log)-1].to)
	st1, err := readProcStats(pid)
	if err != nil {
		return err
	}
	m1, err := fetchMetrics(d.base)
	if err != nil {
		return err
	}

	// Outcomes → digest and latencies. A failed operation keeps its latency:
	// it fails the run, and must not flatter the quantiles meanwhile.
	var firstLine []float64
	lat := make([]float64, len(ops))
	res.lat = make([]float64, len(ops))
	byClass := map[string][]float64{}
	hashes := make([][sha256.Size]byte, len(ops))
	ok, okPoints := 0, 0
	for i, o := range outs {
		res.Ops[ops[i].Class]++
		hashes[i], res.lat[i], lat[i] = o.hash, o.latMs, o.latMs*speeds[i]
		byClass[ops[i].Class] = append(byClass[ops[i].Class], lat[i])
		if o.err != nil {
			res.fail("op %d (%s): %v", i, ops[i].Class, o.err)
			continue
		}
		firstLine = append(firstLine, o.firstLineMs*speeds[i])
		ok++
		okPoints += ops[i].Points
	}
	res.Attempted = len(ops)
	res.Digest = foldDigest(hashes)

	e2e := res.EndToEnd
	res.timing(e2e, "setup_s", median(setups), len(setups))
	res.timing(e2e, "req_per_s", float64(ok)/wall, ok)
	res.timing(e2e, "points_per_s", float64(okPoints)/wall, okPoints)
	res.timing(e2e, "lat_p50_ms", quantile(lat, 0.50), len(lat))
	res.timing(e2e, "lat_p95_ms", quantile(lat, 0.95), len(lat))
	res.timing(e2e, "first_line_p50_ms", median(firstLine), len(firstLine))
	e2e["wall_s"] = wall
	e2e["cpu_s"] = cpu
	e2e["peak_rss_mb"] = st1.peakRSSMB

	pl := res.PerLayer
	for class, v := range byClass {
		res.timing(pl, "client."+class+".lat_p50_ms", median(v), len(v))
	}
	res.timing(pl, "client.lat_p99_ms", quantile(lat, 0.99), len(lat))
	pl["client.cpu_s"] = clientCPU
	pl["harness.speed"] = wall / rawWall
	pl["harness.raw_wall_s"] = rawWall
	serverCounters(pl, m0, m1)
	return nil
}

// serverCounters fills the per-layer metrics that are deltas of the daemon's
// /metrics counters over the measured list.
func serverCounters(pl map[string]float64, m0, m1 server.MetricsSnapshot) {
	points := m1.Points - m0.Points
	if points > 0 {
		pl["server.cache_hit_ratio"] = float64(m1.CacheHits-m0.CacheHits) / float64(points)
	}
	evals := m1.Eval.Count - m0.Eval.Count
	pl["server.eval_count"] = float64(evals)
	if evals > 0 {
		pl["server.eval_mean_ms"] = float64(m1.Eval.SumNs-m0.Eval.SumNs) / float64(evals) / 1e6
	}
	// Two closed-loop clients never queue, so shed and coalesced are
	// reported and expected to be 0.
	pl["server.coalesced"] = float64(m1.Coalesced - m0.Coalesced)
	pl["server.shed"] = float64(m1.Shed - m0.Shed)
	errs := func(m server.MetricsSnapshot) int64 {
		e := m.Errors
		return e.InvalidRequest + e.InvalidMachine + e.InvalidFault + e.Deadline + e.Aborted + e.Internal
	}
	pl["server.errors"] = float64(errs(m1) - errs(m0))
	pl["server.sweep_points_reused"] = float64(m1.SweepPointsReused - m0.SweepPointsReused)
	pl["server.partitions_reused"] = float64(m1.PartitionsReused - m0.PartitionsReused)
}
