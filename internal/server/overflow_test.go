package server

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"strings"
	"testing"
	"time"
)

// overflowProbes are well-formed requests whose operands overflow a number
// the evaluation or the reply holds: a virtual clock past the largest
// float64, a budget past time.Duration, a wire size past int64. Each is
// refused with a typed 400 (a fault plan's factor past the plan's bound, as
// an invalid plan) before it can render +Inf (a 500), expire at once,
// or answer 200 with a wrapped traffic count.
var overflowProbes = []struct{ name, body, message string }{
	{"sync compute past float64",
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"sync","computeSeconds":1e308,"supersteps":3},"procs":16}`,
		"sync at P=16: virtual time overflows float64"},
	{"program compute past float64",
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"program","ranks":[[{"op":"compute","seconds":1e308},{"op":"compute","seconds":1e308}],[]]},"procs":2}`,
		"program at P=2: virtual time overflows float64"},
	{"allreduce beta factor past float64", // refused with the plan, before it runs
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"allreduce","bytes":1000000000000000},"procs":16,"faults":{"Links":[{"Src":-1,"Dst":-1,"Class":-1,"LatencyFactor":1,"BetaFactor":1e308}]}}`,
		"hbsp: invalid fault plan: link rule 0: latency factor 1 and beta factor 1e+308 must be at most 1e+12"},
	{"budget one past a Duration of milliseconds",
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier"},"procs":8,"options":{"budgetMs":9223372036854}}`,
		"budgetMs must be in [0,86400000], got 9223372036854"},
	{"budget past a Duration",
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier"},"procs":8,"options":{"budgetMs":9223372036855}}`,
		"budgetMs must be in [0,86400000], got 9223372036855"},
	{"budget at MaxInt64",
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier"},"procs":8,"options":{"budgetMs":9223372036854775807}}`,
		"budgetMs must be in [0,86400000], got 9223372036854775807"},
	{"budget one past the ceiling",
		`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier"},"procs":8,"options":{"budgetMs":86400001}}`,
		"budgetMs must be in [0,86400000], got 86400001"},
	{"allgather of 2^62-byte blocks",
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"allgather","bytes":4611686018427387904},"procs":16}`,
		"allgather at P=16: bytes must be <= 18014398509481983, got 4611686018427387904"},
	{"allreduce of MaxInt64 bytes",
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"allreduce","bytes":9223372036854775807},"procs":16}`,
		"allreduce at P=16: bytes must be <= 18014398509481983, got 9223372036854775807"},
	{"total exchange of 2^62-byte blocks",
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"totalexchange","bytes":4611686018427387904},"procs":16}`,
		"totalexchange at P=16: bytes must be <= 18014398509481983, got 4611686018427387904"},
	{"sweep of 2^62-byte blocks",
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"allgather"},"procs":16,"sweep":{"bytes":[8,4611686018427387904]}}`,
		"allgather at P=16: bytes must be <= 18014398509481983, got 4611686018427387904"},
	{"stencil of a 2^62-point grid",
		`{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"stencil","grid":4611686018427387904},"procs":4}`,
		"stencil at P=4 over 2 iterations: grid must be <= 3037000499, got 4611686018427387904"},
	{"stencil traffic past int64",
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"stencil","grid":262141,"iterations":1048576},"procs":1048576}`,
		"stencil at P=1048576 over 1048576 iterations: grid must be <= 262140, got 262141"},
	{"sync traffic past int64",
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"sync"},"procs":1048576}`,
		"sync at P=1048576 over 3 supersteps: the traffic would overflow int64"},
	{"program traffic past int64",
		`{"profile":{"preset":"flat-cluster"},"workload":{"kind":"program","ranks":[[{"op":"isend","to":1,"bytes":9223372036854775807},{"op":"wait"}],[{"op":"post","to":0,"bytes":1}]]},"procs":2}`,
		"rank 1 op 0: the program's traffic would overflow int64"},
}

// TestOverflowsAreRefused sends every probe and requires its typed 400 — on
// a sweep, as the error line that ends the stream.
func TestOverflowsAreRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range overflowProbes {
		t.Run(tc.name, func(t *testing.T) {
			resp, data := predict(t, ts, tc.body)
			lines := strings.Split(strings.TrimSpace(string(data)), "\n")
			var e apiError
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &e); err != nil {
				t.Fatalf("status %d, last line outside the error shape (%v): %s", resp.StatusCode, err, data)
			}
			code := "invalid_request"
			if strings.HasPrefix(tc.message, "hbsp: invalid fault plan") {
				code = "invalid_fault"
			}
			if e.Err.Code != code || e.Err.Status != 400 || !strings.Contains(e.Err.Message, tc.message) {
				t.Fatalf("status %d, error %+v; want %s 400 containing %q", resp.StatusCode, e.Err, code, tc.message)
			}
			if strings.Contains(tc.body, `"sweep"`) != (resp.StatusCode == 200) {
				t.Fatalf("status %d: a point is refused with 400, a sweep ends its 200 stream with the error", resp.StatusCode)
			}
		})
	}
	if got := s.Metrics().Errors; got.InvalidRequest+got.InvalidFault != int64(len(overflowProbes)) || got.InvalidFault != 1 || got.Internal != 0 {
		t.Errorf("/metrics errors %+v, want %d invalid requests and 1 invalid fault plan", got, len(overflowProbes)-1)
	}
}

// TestStencilGridLimit holds the grid bound to its definition in exact
// arithmetic: the limit's traffic fits in int64 and one more row's does not,
// unless the cell count binds first.
func TestStencilGridLimit(t *testing.T) {
	maxInt64 := big.NewInt(math.MaxInt64)
	traffic := func(procs, iterations, grid int) *big.Int {
		halo := big.NewInt(int64(8*grid + 24))
		return halo.Mul(halo, big.NewInt(int64(4*procs))).Mul(halo, big.NewInt(int64(iterations)))
	}
	for _, c := range []struct{ procs, iterations int }{{4, 2}, {4096, 100}, {1 << 20, 91}, {1 << 20, 1 << 20}, {1 << 20, math.MaxInt64}} {
		limit := stencilGridLimit(c.procs, c.iterations)
		if limit > maxGrid || limit >= 3 && traffic(c.procs, c.iterations, limit).Cmp(maxInt64) > 0 {
			t.Errorf("P=%d, %d iterations: limit %d overflows", c.procs, c.iterations, limit)
		}
		if limit < maxGrid && traffic(c.procs, c.iterations, limit+1).Cmp(maxInt64) <= 0 {
			t.Errorf("P=%d, %d iterations: limit %d is not the largest", c.procs, c.iterations, limit)
		}
	}
	if new(big.Int).Mul(big.NewInt(maxGrid), big.NewInt(maxGrid)).Cmp(maxInt64) > 0 ||
		new(big.Int).Mul(big.NewInt(maxGrid+1), big.NewInt(maxGrid+1)).Cmp(maxInt64) <= 0 {
		t.Errorf("maxGrid %d is not the largest grid whose square fits in int64", maxGrid)
	}
}

// TestLargestOperandsAreAccepted walks each ceiling from below: the budget
// ceiling itself is accepted, and per kind the largest accepted operand
// answers with the exact traffic while the next one is refused. The exact
// traffic is extrapolated from small operands, for the traffic is affine in
// bytes (and, at P=4, in the stencil's grid).
func TestLargestOperandsAreAccepted(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status := func(body string) (int, *PredictPoint, string) {
		t.Helper()
		resp, data := predict(t, ts, body)
		var p PredictPoint
		if resp.StatusCode == 200 {
			if err := json.Unmarshal(data, &p); err != nil {
				t.Fatal(err)
			}
		}
		return resp.StatusCode, &p, string(data)
	}

	if code, _, data := status(fmt.Sprintf(`{"profile":{"preset":"xeon-8x2x4"},"workload":{"kind":"barrier"},"procs":8,"options":{"budgetMs":%d}}`, maxBudgetMs)); code != 200 {
		t.Errorf("budgetMs at the ceiling: status %d: %s", code, data)
	}

	const procs = 16
	type row struct {
		kind, field, profile string
		procs, limit         int
	}
	rows := []row{{kind: "stencil", field: "grid", profile: "xeon-cluster", procs: 4, limit: stencilGridLimit(4, defaultIterations)}}
	for _, kind := range []string{"broadcast", "reduce", "allreduce", "allgather", "totalexchange"} {
		rows = append(rows, row{kind, "bytes", "flat-cluster", procs, math.MaxInt64 / (2 * procs * procs)})
	}
	for _, r := range rows {
		t.Run(r.kind, func(t *testing.T) {
			body := func(v int) string {
				return fmt.Sprintf(`{"profile":{"preset":%q},"workload":{"kind":%q,%q:%d},"procs":%d}`, r.profile, r.kind, r.field, v, r.procs)
			}
			moved := func(v int) *big.Int {
				code, p, data := status(body(v))
				if code != 200 {
					t.Fatalf("%s=%d: status %d: %s", r.field, v, code, data)
				}
				if p.BytesMoved < 0 {
					t.Fatalf("%s=%d: bytesMoved %d", r.field, v, p.BytesMoved)
				}
				return big.NewInt(p.BytesMoved)
			}
			// traffic(v) = a·v + c, checked at a third small value.
			t1, t2 := moved(10), moved(11)
			a := new(big.Int).Sub(t2, t1)
			c := new(big.Int).Sub(t1, new(big.Int).Mul(a, big.NewInt(10)))
			at := func(v int) *big.Int { return new(big.Int).Add(new(big.Int).Mul(a, big.NewInt(int64(v))), c) }
			if got, want := moved(13), at(13); got.Cmp(want) != 0 {
				t.Fatalf("traffic not affine in %s: %v at 13, want %v", r.field, got, want)
			}
			if got, want := moved(r.limit), at(r.limit); got.Cmp(want) != 0 {
				t.Errorf("%s=%d (the largest accepted): bytesMoved %v, want the exact %v", r.field, r.limit, got, want)
			}
			if code, _, data := status(body(r.limit + 1)); code != 400 || !strings.Contains(data, "would overflow int64") {
				t.Errorf("%s=%d (one past the largest): status %d: %s", r.field, r.limit+1, code, data)
			}
		})
	}
}

// TestSyncTraffic holds the sync workload's traffic bound to its definition
// in exact arithmetic — per superstep, and once before the first, the
// dissemination count exchange, header plus dist·P count entries from every
// rank at every stage; per superstep a one-value put from every rank — and to
// the bytesMoved a run replies under either synchronizer; and it refuses the
// P = 2^20 sync, which used to walk for seconds and reply a wrapped count,
// before any rank is sized.
func TestSyncTraffic(t *testing.T) {
	exact := func(procs, supersteps int) *big.Int {
		exchange := new(big.Int)
		for dist := 1; dist < procs; dist *= 2 {
			size := big.NewInt(int64(24 + dist*procs*4))
			exchange.Add(exchange, size.Mul(size, big.NewInt(int64(procs))))
		}
		total := exchange.Mul(exchange, big.NewInt(int64(supersteps)+1))
		return total.Add(total, big.NewInt(int64(supersteps)*int64(procs)*32))
	}
	maxInt64 := big.NewInt(math.MaxInt64)
	for _, c := range []struct{ procs, supersteps int }{{2, 1}, {64, 3}, {1000, 7}, {1 << 19, 3}, {1 << 19, 15}, {1 << 19, 16}, {1 << 20, 1}, {2, math.MaxInt64 / 1000}} {
		got, ok := syncTraffic(c.procs, c.supersteps)
		want := exact(c.procs, c.supersteps)
		if fits := want.Cmp(maxInt64) <= 0; ok != fits || ok && got != want.Int64() {
			t.Errorf("P=%d over %d supersteps: %d, %t; want %v (fits: %t)", c.procs, c.supersteps, got, ok, want, fits)
		}
	}

	_, ts := newTestServer(t, Config{})
	for _, procs := range []int{2, 64, 1000} {
		for _, variant := range []string{"dissemination", "schedule"} {
			resp, data := predict(t, ts, fmt.Sprintf(`{"profile":{"preset":"xeon-cluster"},"workload":{"kind":"sync","variant":%q},"procs":%d}`, variant, procs))
			var p PredictPoint
			if resp.StatusCode != 200 || json.Unmarshal(data, &p) != nil {
				t.Fatalf("P=%d %s: status %d: %s", procs, variant, resp.StatusCode, data)
			}
			if want, _ := syncTraffic(procs, defaultSupersteps); p.BytesMoved != want {
				t.Errorf("P=%d %s: bytesMoved %d, the bound counts %d", procs, variant, p.BytesMoved, want)
			}
		}
	}

	start := time.Now()
	resp, data := predict(t, ts, `{"profile":{"preset":"flat-cluster"},"workload":{"kind":"sync"},"procs":1048576}`)
	if took := time.Since(start); resp.StatusCode != 400 || took > 100*time.Millisecond {
		t.Errorf("sync at P=2^20: status %d after %v, want 400 within 100 ms: %s", resp.StatusCode, took, data)
	}
}
