package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// flatten renders a request list to bytes, so lists compare byte for byte.
func flatten(lists ...[]request) []byte {
	var b bytes.Buffer
	for _, l := range lists {
		for i := range l {
			r := &l[i]
			b.WriteString(r.Class)
			b.Write(r.bytesFor(nil))
			b.WriteString(r.Expect)
			if r.Gzip {
				b.WriteByte('z')
			}
			b.WriteByte('\n')
		}
	}
	return b.Bytes()
}

func TestGeneratorsAreDeterministic(t *testing.T) {
	gens := map[string]func(seed int64, scale float64) ([]request, []request){
		"serve_hot": genServeHot, "serve_cold": genServeCold, "serve_sweep": genServeSweep,
	}
	for name, gen := range gens {
		a1, a2 := gen(1, 0.05)
		b1, b2 := gen(1, 0.05)
		c1, c2 := gen(2, 0.05)
		if !bytes.Equal(flatten(a1, a2), flatten(b1, b2)) {
			t.Errorf("%s: equal seeds gave different lists", name)
		}
		if bytes.Equal(flatten(a1, a2), flatten(c1, c2)) {
			t.Errorf("%s: seeds 1 and 2 gave the same list", name)
		}
	}
}

// TestStrataHaveEqualCounts: no traffic mix is assumed, so every block of a
// list holds each stratum equally often, whatever the seed.
func TestStrataHaveEqualCounts(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		_, cold := genServeCold(seed, 1)
		for at := 0; at < len(cold); at += len(coldClasses) {
			seen := map[string]int{}
			for _, op := range cold[at : at+len(coldClasses)] {
				seen[op.Class]++
			}
			for _, class := range coldClasses {
				if seen[class] != 1 {
					t.Fatalf("seed %d, serve_cold block at %d: %d requests of class %s, want 1", seed, at, seen[class], class)
				}
			}
		}

		prefill, hot := genServeHot(seed, 1)
		if len(prefill) != hotSmallKeys+hotGzipKeys {
			t.Fatalf("seed %d: %d keys", seed, len(prefill))
		}
		distinct := map[string]bool{}
		for i := range prefill {
			distinct[string(prefill[i].Body)] = true
		}
		if len(distinct) != len(prefill) {
			t.Errorf("seed %d: only %d distinct keys of %d", seed, len(distinct), len(prefill))
		}
		block := hotBlockEach * (len(hotKinds) + 1)
		for at := 0; at < len(hot); at += block {
			seen := map[string]int{}
			for _, op := range hot[at : at+block] {
				if op.Gzip {
					seen["gzip"]++
				} else {
					seen[op.Kind]++
				}
			}
			for _, stratum := range append([]string{"gzip"}, hotKinds...) {
				if seen[stratum] != hotBlockEach {
					t.Fatalf("seed %d, serve_hot block at %d: %d draws of %s, want %d", seed, at, seen[stratum], stratum, hotBlockEach)
				}
			}
		}
	}
}

func TestSweepRepeatsAreByteExact(t *testing.T) {
	warm, ops := genServeSweep(1, 1)
	type sent struct {
		at  int
		zip bool
	}
	fresh := map[string]sent{}
	for i, op := range warm {
		fresh[string(op.Body)] = sent{i - len(warm), op.Gzip}
	}
	repeats, zipped := 0, 0
	for i, op := range ops {
		if op.Gzip {
			zipped++
		}
		if op.Class != "sweep_repeat" {
			fresh[string(op.Body)] = sent{i, op.Gzip}
			continue
		}
		repeats++
		orig, ok := fresh[string(op.Body)]
		if !ok || orig.zip != op.Gzip {
			t.Fatalf("sweep %d repeats nothing an earlier sweep sent", i)
		}
		if d := i - orig.at; d <= sweepHead || d >= 2*3*len(sweepShapes) {
			t.Errorf("sweep %d repeats the sweep %d positions before it", i, d)
		}
	}
	// An odd number of blocks repeats one more block of plain sweeps than of gzip ones.
	if off := len(ops) - 2*zipped; 3*repeats != len(ops) || off < 0 || off > len(sweepShapes) {
		t.Errorf("%d repeats and %d gzip replies in %d sweeps, want a third and a half", repeats, zipped, len(ops))
	}
}

func TestNearestRankQuantile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ q, want float64 }{{0.5, 5}, {0.95, 10}, {0.9, 9}, {0.01, 1}, {1, 10}} {
		if got := quantile(v, tc.q); got != tc.want {
			t.Errorf("quantile(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
	if v[0] != 5 {
		t.Error("quantile reordered its input")
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing is not 0")
	}
}

// TestQuartilesMatchPython pins the spread rule to
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 4, 8, 16, 32, 64, 128, 256, 512}, [3]float64{3.5, 24, 160}},
		{[]float64{3, 1}, [3]float64{0.5, 2, 3.5}},
		{[]float64{3, 1, 10}, [3]float64{1, 3, 10}},
	} {
		q1, q2, q3 := quartiles(tc.in)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestSpeedLog: every stretch counts at its own speed, and the pauses
// between stretches, when the probe runs, do not count at all.
func TestSpeedLog(t *testing.T) {
	const s = int64(1e9)
	log := speedLog{{0, 2 * s, 1}, {3 * s, 5 * s, 0.5}}
	// One second of the first stretch, the paused second, one second of the
	// second stretch at half speed.
	if ref, raw := log.seconds(1*s, 4*s); ref != 1.5 || raw != 2 {
		t.Errorf("seconds = %v at reference speed, %v as run; want 1.5 and 2", ref, raw)
	}
	if got := speedOf(probeRefMs, 3*probeRefMs); got != 0.5 {
		t.Errorf("speedOf = %v, want 0.5", got)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, StartNs: 0, EndNs: 100},
		{ID: 2, Parent: 1, StartNs: 10, EndNs: 40},
		{ID: 3, Parent: 1, StartNs: 30, EndNs: 60},  // overlaps span 2: counted once
		{ID: 4, Parent: 3, StartNs: 35, EndNs: 45},  // a grandchild does not count against span 1
		{ID: 5, Parent: 1, StartNs: 90, EndNs: 120}, // clipped to the parent
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 40, 2: 30, 3: 20, 4: 10, 5: 30} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	lat := metricDef{Name: "lat_p50_ms", Better: lower, Bound: 0.10}
	rate := metricDef{Name: "req_per_s", Better: higher, Bound: 0.10}
	steady := []float64{100, 101, 99, 100}
	for _, tc := range []struct {
		def  metricDef
		a, b []float64
		want string
	}{
		{lat, steady, []float64{105, 104, 106}, "ok"},
		{lat, steady, []float64{115, 114, 116}, "regressed"},
		{rate, steady, []float64{85, 86, 84}, "regressed"},
		{rate, steady, []float64{120, 121}, "ok"},
		{lat, []float64{80, 100, 120, 140}, []float64{110, 111}, "unresolved"},
		{lat, []float64{80, 100, 120, 140}, []float64{70, 71}, "ok"},
	} {
		if got := verdict(tc.def, tc.a, tc.b); got != tc.want {
			t.Errorf("verdict(%s, %v, %v) = %s, want %s", tc.def.Name, tc.a, tc.b, got, tc.want)
		}
	}
	// Every request class is judged on its own, next to the end-to-end metrics.
	if got, want := len(judged()), len(endToEnd)+len(clientClasses); got != want {
		t.Errorf("%d judged metrics, want %d", got, want)
	}
}

// TestManifestIsCommitted keeps BENCHMARK.json equal to the metric table.
func TestManifestIsCommitted(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != manifest() {
		t.Error("BENCHMARK.json differs from `go run . -manifest`")
	}
	if n := len(perLayer); n > 128 {
		t.Errorf("%d per-layer metrics, the contract allows 128", n)
	}
}

var harnessBin struct {
	sync.Once
	path string
	err  error
}

// buildHarness compiles the harness once per test binary.
func buildHarness(t *testing.T) string {
	harnessBin.Do(func() {
		dir, err := os.MkdirTemp("", "benchmark-test-")
		if err != nil {
			harnessBin.err = err
			return
		}
		harnessBin.path = filepath.Join(dir, "benchmark")
		out, err := exec.Command("go", "build", "-o", harnessBin.path, ".").CombinedOutput()
		if err != nil {
			harnessBin.err = err
			t.Logf("go build: %s", out)
		}
	})
	if harnessBin.err != nil {
		t.Fatal(harnessBin.err)
	}
	return harnessBin.path
}

func TestMain(m *testing.M) {
	code := m.Run()
	if harnessBin.path != "" {
		os.RemoveAll(filepath.Dir(harnessBin.path))
	}
	os.Exit(code)
}

// TestSmokeRun runs all five workloads at 1/100 size: exit 0, nothing failed.
func TestSmokeRun(t *testing.T) {
	bin := buildHarness(t)
	start := time.Now()
	out, err := exec.Command(bin, "-smoke").Output()
	if err != nil {
		t.Fatalf("smoke run: %v\n%s", err, out)
	}
	seen := 0
	for _, line := range strings.Split(string(out), "\n") {
		if !strings.HasPrefix(line, "{") {
			continue
		}
		var res struct {
			Correct   bool
			Attempted int
			Failed    int
			Metrics   map[string]metricValue
		}
		if err := json.Unmarshal([]byte(line), &res); err != nil {
			t.Fatalf("result line does not parse: %v", err)
		}
		seen++
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("smoke result %d: correct=%v attempted=%d failed=%d", seen, res.Correct, res.Attempted, res.Failed)
		}
		for _, def := range endToEnd {
			if v, ok := res.Metrics[def.Name]; !ok || !(v.Value > 0) || v.Unit != def.Unit {
				t.Errorf("smoke result %d: metric %s = %+v", seen, def.Name, v)
			}
		}
	}
	if seen != len(workloads) {
		t.Errorf("%d result lines, want %d", seen, len(workloads))
	}
	t.Logf("smoke run took %v", time.Since(start))
}

// processGone reports whether the process has exited (a zombie whose parent
// died with it counts as gone).
func processGone(pid int) bool {
	stat, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return true
	}
	rest := string(stat[bytes.LastIndexByte(stat, ')')+1:])
	return strings.HasPrefix(strings.TrimSpace(rest), "Z")
}

// TestKilledHarnessLeavesNoDaemon kills the harness mid-run — outright during
// set-up, politely during the measured list — and checks that no hbspd
// survives it.
func TestKilledHarnessLeavesNoDaemon(t *testing.T) {
	bin := buildHarness(t)
	pidRE := regexp.MustCompile(`hbspd pid=(\d+)`)
	for _, tc := range []struct {
		sig     syscall.Signal
		daemons int // kill once this many daemons were announced
	}{{syscall.SIGKILL, 1}, {syscall.SIGTERM, setupReps}} {
		cmd := exec.Command(bin, "-workload", "serve_hot", "-seconds", "20")
		stderr, err := cmd.StderrPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		var pid int
		sc := bufio.NewScanner(stderr)
		for n := 0; n < tc.daemons && sc.Scan(); {
			if m := pidRE.FindStringSubmatch(sc.Text()); m != nil {
				pid, _ = strconv.Atoi(m[1])
				n++
			}
		}
		if pid == 0 {
			cmd.Process.Kill()
			cmd.Wait()
			t.Fatal("the harness never announced a daemon")
		}
		time.Sleep(200 * time.Millisecond)
		cmd.Process.Signal(tc.sig)
		cmd.Wait()
		deadline := time.Now().Add(5 * time.Second)
		for !processGone(pid) && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if !processGone(pid) {
			syscall.Kill(pid, syscall.SIGKILL)
			t.Errorf("hbspd %d survived the harness after %v", pid, tc.sig)
		}
	}
}
