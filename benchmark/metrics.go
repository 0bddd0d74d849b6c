package main

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
)

// metricDef names one metric. This table is the source of BENCHMARK.json
// (go run . -manifest prints it) and of the bounds -compare judges by; a test
// keeps the committed file equal to it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd are the metrics a user of the system would see, each defined on
// every workload, with the share of the parent's median by which it may
// worsen before a change counts as a regression. The driver's contract wants
// a metric's ten-run spread below a third of its bound and caps a bound at
// 0.25; README.md ("Where the bounds come from") lists the largest spread
// measured for each metric, and every one of them times three is past the cap.
var endToEnd = []metricDef{
	{"setup_s", "s", lower, 0.25},
	{"req_per_s", "1/s", higher, 0.25},
	{"points_per_s", "1/s", higher, 0.25},
	{"lat_p50_ms", "ms", lower, 0.25},
	{"lat_p95_ms", "ms", lower, 0.25},
	{"first_line_p50_ms", "ms", lower, 0.25},
	{"wall_s", "s", lower, 0.25},
	{"cpu_s", "s", lower, 0.25},
	{"peak_rss_mb", "MB", lower, 0.25},
}

// clientClasses are the request classes whose latencies are reported one by
// one, in table order.
var clientClasses = append(append([]string{"hit_small", "hit_gzip"}, coldClasses...), "sweep_fresh", "sweep_repeat")

// paperSeries are the evaluation series reported one by one; the rest of the
// paper_eval list is summed into experiments.other_s.
var paperSeries = []string{"table3_1", "fig4_3", "fig5_6_xeon", "fig5_6_opteron", "collective_opteron",
	"collapse_scaling", "table8_2", "fig8_4", "fig8_10", "fig8_18"}

// perLayer are the metrics of single layers (the repo's modules, plus client
// and http for the harness's own view). A traced run prints all of them; a
// metric the workload does not exercise reads 0.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var defs []metricDef
	add := func(unit, better string, names ...string) {
		for _, n := range names {
			defs = append(defs, metricDef{Name: n, Unit: unit, Better: better})
		}
	}
	for _, class := range clientClasses {
		add("ms", lower, "client."+class+".lat_p50_ms")
	}
	add("ms", lower, "client.lat_p99_ms")
	add("s", lower, "client.cpu_s")
	add("ratio", lower, "harness.trace_overhead_ratio")
	add("ratio", higher, "harness.speed")
	add("s", lower, "harness.raw_wall_s")
	add("us", lower, "http.transport_us")

	add("us", lower, "server.handler_hit_us", "server.handler_miss_us", "server.handler_sweep_point_us",
		"server.decode_us", "server.render_us", "server.render_traced_us", "server.gzip_us")
	add("ms", lower, "server.decode_matrix_ms", "server.eval_mean_ms")
	add("ratio", higher, "server.cache_hit_ratio", "server.replay_coverage")
	add("count", lower, "server.eval_count", "server.coalesced", "server.shed", "server.errors")
	add("count", higher, "server.sweep_points_reused", "server.partitions_reused")

	add("us", lower, "platform.fingerprint_us")
	add("ms", lower, "platform.machine_build_ms.p256", "platform.machine_build_ms.p1024",
		"platform.machine_build_ms.p2048", "platform.flat_machine_build_ms.p1m")

	add("ms", lower, "barrier.schedule_build_ms.p128", "barrier.schedule_build_ms.p256",
		"barrier.verify_ms.p256", "barrier.adjacency_ms.p256")
	add("us", lower, "barrier.stream_build_us")

	add("ms", lower, "sched.partition_ms.p1024", "sched.perrank_te_ms.p1024", "sched.perrank_te_ms.p2048",
		"sched.perrank_fault_ms.p1024", "sched.collapsed_sync_ms.p1m", "sched.collapsed_te_ms.p256k",
		"sched.assemble_ms.p1m", "sched.sweep_first_point_ms.p1024", "sched.sweep_next_point_ms.p1024",
		"sched.program_ms.p1024")
	add("1/s", higher, "sched.perrank_msgs_per_s")
	add("count", higher, "sched.sweep_tapes_reused")
	add("MB", lower, "sched.sweep_memo_mb")
	add("ratio", higher, "sched.split_coverage")

	add("ms", lower, "simnet.send_recv_ms.p256", "simnet.te_concurrent_ms.p256")
	add("1/s", higher, "simnet.msgs_per_s")

	add("ms", lower, "bsp.sync_gate_ms.p2048", "bsp.sync_concurrent_ms.p256", "bsp.session_sync_ms.p256",
		"mpi.schedule_collective_ms.p256")

	add("ratio", lower, "trace.record_overhead_ratio")
	add("ms", lower, "trace.spill_write_ms.p1024", "trace.open_ms", "trace.critical_path_ms",
		"trace.rollup_ms", "trace.analyze_inram_ms.p256")
	add("MB", lower, "trace.spill_mb.p1024")
	add("count", lower, "trace.events.p1024")

	add("ratio", lower, "fault.overhead_ratio.p1024")
	add("us", lower, "fault.compile_us")

	for _, s := range paperSeries {
		add("s", lower, "experiments.series_s."+s)
	}
	add("s", lower, "experiments.other_s")
	add("ms", lower, "experiments.render_ms")

	add("ms", lower, "stencil.run_bsp_ms.n1536.p16", "stencil.run_mpi_ms.n1536.p16", "stencil.predict_ms",
		"bench.pairwise_ms.p144", "bench.bspbench_ms.p16", "bench.kernel_rate_ms", "adapt.greedy_ms.p64")
	return defs
}

// workloadDef names one workload and why it exists.
type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadDef{
	{"serve_hot", "272 prefilled keys, every reply a cache hit, so net/http, decode, fingerprint, LRU and gzip-on-hit are the cost; seven request shapes in equal counts, keys uniform: no traffic mix is assumed"},
	{"serve_cold", "fresh seed per request, every reply a miss: socket to last byte through all four evaluation paths and both upload shapes; ten request classes in equal counts: no traffic mix is assumed"},
	{"serve_sweep", "64-point NDJSON sweeps: tape reuse, the RunPoints pool, streaming, whole sweeps from cache; five shapes x fresh plain, fresh gzip, repeat in equal counts: no traffic mix is assumed"},
	{"paper_eval", "the evaluation series of cmd/experiments in thesis order: concurrent engine, bench, stencil, bsp and mpi, which the server workloads barely touch; fixed list, the same for every seed"},
	{"scale_direct", "direct sched/bsp/trace calls at P=1024 to 2^20: the per-rank stage sweep beside the collapsed path and the trace pipeline; fixed list, the same for every seed"},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return names
}

// runSeconds is the run length the manifest fixes and the operation counts
// are calibrated against.
const runSeconds = 10

// manifest renders BENCHMARK.json.
func manifest() string {
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{[]string{"bash", "benchmark/run.sh"}, []string{"benchmark"}, runSeconds, workloads, endToEnd, perLayer}
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		panic(err)
	}
	return string(data) + "\n"
}

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricsJSON renders the values of the defined metrics, in definition
// order; a metric without a value reads 0.
func metricsJSON(defs []metricDef, values map[string]float64) string {
	var b strings.Builder
	b.WriteByte('{')
	for i, d := range defs {
		if i > 0 {
			b.WriteByte(',')
		}
		v, _ := json.Marshal(metricValue{Value: values[d.Name], Unit: d.Unit})
		fmt.Fprintf(&b, "%q:%s", d.Name, v)
	}
	b.WriteByte('}')
	return b.String()
}

// printMetrics writes name, value and unit of each defined metric that has a
// value, with the sample count of timings.
func printMetrics(defs []metricDef, values map[string]float64, samples map[string]int) string {
	var b strings.Builder
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			continue
		}
		fmt.Fprintf(&b, "  %-40s %14.6g %-6s", d.Name, v, d.Unit)
		if n, ok := samples[d.Name]; ok {
			fmt.Fprintf(&b, " n=%d", n)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
