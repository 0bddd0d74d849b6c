package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// harness holds the settings of one invocation.
type harness struct {
	env         *env
	hbspd       string // daemon binary; built on first use
	seed        int64
	seconds     float64
	smoke       bool
	traced      bool
	writeGolden bool
}

// scale maps -seconds (and -smoke) to the factor applied to every list's
// base size. Work per run is fixed by the list, not by the clock, so two
// commits do identical work and throughput is work ÷ wall; the base sizes
// are calibrated so that a run measures for about -seconds on the seed
// commit and two cores.
func (h *harness) scale() float64 {
	s := h.seconds / runSeconds
	if h.smoke {
		s /= 100
	}
	return s
}

func isServe(workload string) bool { return strings.HasPrefix(workload, "serve_") }

// runWorkload runs one workload once: the untraced measurement that yields
// the end-to-end metrics, then — on a traced run — the traced pass that
// yields the per-layer spans.
func (h *harness) runWorkload(name string) (*runResult, error) {
	res := newResult(name, h.seed, h.seconds, h.traced)
	res.Smoke = h.smoke
	var err error
	if isServe(name) {
		if h.hbspd == "" {
			if h.hbspd, err = h.env.buildHbspd(); err != nil {
				return nil, err
			}
		}
		if err = runServe(h.hbspd, res, h.scale()); err == nil && h.traced {
			err = traceServe(h.env, res, h.scale())
		}
	} else {
		err = h.runLibrary(res)
	}
	if err != nil {
		return nil, err
	}
	h.checkGolden(res)
	return res, nil
}

// report prints the run for people, then the one JSON line the driver reads,
// and returns the exit code the run deserves.
func (h *harness) report(res *runResult) int {
	fmt.Printf("== %s seed=%d seconds=%g traced=%v ==\n", res.Workload, res.Seed, res.Seconds, res.Traced)
	fmt.Printf("  operations: %d attempted, %d failed; by class: %v\n", res.Attempted, res.Failed, res.Ops)
	fmt.Printf("  result_digest: %s (golden: %s)\n", res.Digest, res.Golden)
	for _, e := range res.Errors {
		fmt.Printf("  error: %s\n", e)
	}
	fmt.Printf("  machine speed over the list: %.3f of reference (%.3f s as run); times below are at reference speed\n",
		res.PerLayer["harness.speed"], res.PerLayer["harness.raw_wall_s"])
	fmt.Print(printMetrics(endToEnd, res.EndToEnd, res.Samples))
	defs, values := endToEnd, res.EndToEnd
	if res.Traced {
		fmt.Print(printMetrics(perLayer, res.PerLayer, res.Samples))
		defs, values = perLayer, res.PerLayer
	}
	correct := res.Failed == 0 && res.Golden != "mismatch"
	fmt.Printf("{\"correct\":%v,\"attempted\":%d,\"failed\":%d,\"metrics\":%s}\n",
		correct, res.Attempted, res.Failed, metricsJSON(defs, values))
	if !correct {
		return 1
	}
	return 0
}

// ---- results --------------------------------------------------------------

// runResult is one run of one workload.
type runResult struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Smoke    bool    `json:"smoke,omitempty"`
	Traced   bool    `json:"traced"`

	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	Digest    string `json:"result_digest"`
	// Golden is "match", "mismatch" or "none" (no golden for this seed and
	// size: the digest is printed and the structure alone validated).
	Golden string   `json:"golden"`
	Errors []string `json:"errors,omitempty"`

	// Ops are the operation counts per class; Samples the sample count
	// behind each timing metric.
	Ops     map[string]int `json:"ops"`
	Samples map[string]int `json:"samples"`

	EndToEnd map[string]float64 `json:"end_to_end"`
	PerLayer map[string]float64 `json:"per_layer,omitempty"`

	// lat holds the daemon run's per-operation latencies in operation order
	// for the traced pass, which compares them with in-process handler times.
	lat []float64
}

func newResult(w string, seed int64, seconds float64, traced bool) *runResult {
	return &runResult{Workload: w, Seed: seed, Seconds: seconds, Traced: traced, Golden: "none",
		Ops: map[string]int{}, Samples: map[string]int{},
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}}
}

// fail counts one failed operation and keeps the first few messages.
func (r *runResult) fail(format string, args ...any) {
	r.Failed++
	if len(r.Errors) < 5 {
		r.Errors = append(r.Errors, fmt.Sprintf(format, args...))
	}
}

// timing stores a timing metric with its sample count.
func (r *runResult) timing(into map[string]float64, name string, v float64, n int) {
	into[name] = v
	r.Samples[name] = n
}

// ---- result files ---------------------------------------------------------

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Commit     string       `json:"commit"`
	NProc      int          `json:"nproc"`
	GoMaxProcs int          `json:"gomaxprocs"`
	GoVersion  string       `json:"go_version"`
	Clients    int          `json:"clients"`
	Runs       []*runResult `json:"runs"`
}

func newResultFile(e *env) *resultFile {
	commit := "unknown" // the driver's checkout is not a git repository
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = e.root
	if out, err := cmd.Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return &resultFile{Commit: commit, NProc: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Clients: numClients}
}

// ---- golden digests -------------------------------------------------------

// goldenKey identifies the list a digest belongs to.
func goldenKey(res *runResult) string {
	size := fmt.Sprintf("seconds=%g", res.Seconds)
	if res.Smoke {
		size += "/smoke"
	}
	return fmt.Sprintf("%s/seed=%d/%s", res.Workload, res.Seed, size)
}

func (h *harness) goldenPath() string { return filepath.Join(h.env.root, "benchmark", "golden.json") }

func readGolden(path string) map[string]string {
	golden := map[string]string{}
	if data, err := os.ReadFile(path); err == nil {
		json.Unmarshal(data, &golden)
	}
	return golden
}

// checkGolden compares the run's digest with the recorded one. A mismatch
// means some output changed: every operation counts as failed, because the
// digest cannot say which. Lists without a golden (other seeds, other sizes)
// print their digest and validate structure only.
func (h *harness) checkGolden(res *runResult) {
	golden := readGolden(h.goldenPath())
	key := goldenKey(res)
	if h.writeGolden && res.Failed == 0 {
		golden[key] = res.Digest
		data, _ := json.MarshalIndent(golden, "", "  ")
		if err := os.WriteFile(h.goldenPath(), append(data, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: writing golden: %v\n", err)
		}
	}
	want, ok := golden[key]
	switch {
	case !ok:
		res.Golden = "none"
	case want == res.Digest:
		res.Golden = "match"
	default:
		res.Golden = "mismatch"
		res.fail("result_digest %s, golden %s", res.Digest, want)
		res.Failed = res.Attempted
	}
}
