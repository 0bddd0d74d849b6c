package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"hbsp/fault"
	"hbsp/server"
)

// The generators turn a seed into a fixed list of operations. The program
// under test only ever sees the generated requests; equal seeds give
// byte-identical lists.
//
// The repo records no traffic: hbspd -loadgen sends one body, and
// scripts/server_smoke.sh and examples/server five. So no mix is assumed.
// Every list is made of blocks that hold each stratum — each request shape
// the workload has — equally often, shuffled inside the block; keys and
// parameters are drawn uniformly. Two seeds differ in order and parameters,
// never in composition, and the per-class latencies are what -compare judges
// a class by.

// rng is SplitMix64: small, fast and independent of the Go release, so a
// seed means the same list on every toolchain.
type rng struct{ s uint64 }

func newRNG(seed int64, stream string) *rng {
	r := &rng{s: uint64(seed)*0x9E3779B97F4A7C15 + 0x1234567}
	for _, c := range []byte(stream) {
		r.s = (r.s ^ uint64(c)) * 0x100000001B3
	}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int     { return int(r.next() % uint64(n)) }
func pick[T any](r *rng, v []T) T { return v[r.intn(len(v))] }

func shuffle[T any](r *rng, v []T) {
	for i := len(v) - 1; i > 0; i-- {
		j := r.intn(i + 1)
		v[i], v[j] = v[j], v[i]
	}
}

// request is one generated HTTP operation.
type request struct {
	Class string
	// Body is the request body. When Patch is set, the bytes at PatchOff
	// are overwritten with Patch before sending (the matrix class shares one
	// 0.5 MB template and perturbs a single entry per request).
	Body     []byte
	Patch    []byte
	PatchOff int
	Gzip     bool
	// Expect is the X-Hbspd-Cache value every reply must carry; sweeps
	// carry no such header and leave it empty.
	Expect string
	// Kind, Procs and Points are what the reply must echo.
	Kind   string
	Procs  int
	Points int
}

// bytesFor materializes the body into scratch (reused per client).
func (r *request) bytesFor(scratch []byte) []byte {
	if r.Patch == nil {
		return r.Body
	}
	scratch = append(scratch[:0], r.Body...)
	copy(scratch[r.PatchOff:], r.Patch)
	return scratch
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("benchmark: marshal request: %v", err))
	}
	return b
}

func point(class string, req *server.PredictRequest, expect string) request {
	return request{Class: class, Body: mustJSON(req), Expect: expect,
		Kind: req.Workload.Kind, Procs: req.Procs, Points: 1, Gzip: class == "hit_gzip"}
}

// blocksFor sizes a list: base operations at -seconds 10, scaled, in whole
// blocks (at least one).
func blocksFor(base int, scale float64, blockSize int) int {
	return max(1, int(math.Round(float64(base)*scale/float64(blockSize))))
}

// ---- serve_hot ------------------------------------------------------------

const (
	hotSmallKeys = 256
	hotGzipKeys  = 16
	hotBaseOps   = 63000 // requests at -seconds 10
	// A block holds hotBlockEach draws from each of the seven strata.
	hotBlockEach = 10
)

// hotKinds are the six collective kinds of the small keys. With the perRank
// point requested with gzip they are serve_hot's seven strata.
var hotKinds = []string{"broadcast", "reduce", "allreduce", "allgather", "totalexchange", "barrier"}

// hotKeys builds the 272-key working set, one key list per stratum: the
// small single points by kind (256 in all) and the 16 gzip keys last.
func hotKeys(seed int64) [][]request {
	r := newRNG(seed, "serve_hot/keys")
	var small []request
	xeon := server.ProfileSpec{Preset: "xeon-cluster"}
	for _, kind := range hotKinds[:5] {
		for _, p := range []int{16, 32, 64, 128, 256} {
			if kind == "totalexchange" && p > 64 {
				continue // dense P×P×stages patterns: 133 MB each at P=256
			}
			for _, b := range []int{8, 64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20, 4 << 20, 16 << 20, 64 << 20} {
				small = append(small, point("hit_small", &server.PredictRequest{
					Profile: xeon, Workload: server.WorkloadSpec{Kind: kind, Bytes: b}, Procs: p}, "hit"))
			}
		}
	}
	for _, variant := range []string{"dissemination", "tree", "linear"} {
		for _, p := range []int{16, 32, 64, 128, 256} {
			small = append(small, point("hit_small", &server.PredictRequest{
				Profile: xeon, Workload: server.WorkloadSpec{Kind: "barrier", Variant: variant}, Procs: p}, "hit"))
		}
	}
	shuffle(r, small)
	strata := make([][]request, len(hotKinds)+1)
	for _, key := range small[:hotSmallKeys] {
		for k, kind := range hotKinds {
			if key.Kind == kind {
				strata[k] = append(strata[k], key)
			}
		}
	}

	flat := server.ProfileSpec{Preset: "flat-cluster"}
	for _, kind := range []string{"allreduce", "allgather"} {
		for _, b := range []int{8, 64, 512, 4096, 32768, 262144, 1 << 20, 4 << 20} {
			strata[len(hotKinds)] = append(strata[len(hotKinds)], point("hit_gzip", &server.PredictRequest{
				Profile: flat, Workload: server.WorkloadSpec{Kind: kind, Bytes: b}, Procs: 512,
				Options: server.OptionsSpec{PerRank: true}}, "hit"))
		}
	}
	return strata
}

// genServeHot returns the prefill list (every key once) and the measured
// list: per block, hotBlockEach uniform draws from the keys of each stratum.
func genServeHot(seed int64, scale float64) (prefill, ops []request) {
	strata := hotKeys(seed)
	for _, keys := range strata {
		prefill = append(prefill, keys...)
	}
	r := newRNG(seed, "serve_hot/draws")
	blockSize := hotBlockEach * len(strata)
	for b := blocksFor(hotBaseOps, scale, blockSize); b > 0; b-- {
		block := make([]request, 0, blockSize)
		for _, keys := range strata {
			for i := 0; i < hotBlockEach; i++ {
				block = append(block, pick(r, keys))
			}
		}
		shuffle(r, block)
		ops = append(ops, block...)
	}
	return prefill, ops
}

// ---- serve_cold -----------------------------------------------------------

const coldBaseOps = 3400 // requests at -seconds 10

// coldClasses are the serve_cold request classes, the strata of its list: a
// block holds one request of each.
var coldClasses = []string{"coll_seed", "coll_bytes", "coll_profile", "sync", "stencil",
	"traced", "fault", "concurrent", "program", "matrix"}

// coldBytesPool has 64 payload sizes: with two rank counts and two kinds it
// is larger than the server's 64-entry schedule cache, so the coll_bytes
// class keeps rebuilding and verifying schedules.
func coldBytesPool() []int {
	pool := make([]int, 64)
	for i := range pool {
		pool[i] = 64 * (i + 1)
	}
	return pool
}

// coldProfile returns entry k of the 96-profile pool — more than the
// server's 32-entry machine LRU holds, so coll_profile keeps rebuilding
// machines.
func coldProfile(k int) *server.CustomProfile {
	f := 1 + float64(k)/256
	return &server.CustomProfile{
		Name:     fmt.Sprintf("pool-%02d", k),
		Topology: server.TopologySpec{Nodes: 32, SocketsPerNode: 2, CoresPerSocket: 4},
		Links: map[string]server.LinkSpec{
			"socket":  {Latency: 0.45e-6 * f, Gap: 0.10e-6, Beta: 1 / 5.0e9, Overhead: 0.30e-6},
			"node":    {Latency: 0.90e-6 * f, Gap: 0.15e-6, Beta: 1 / 3.0e9, Overhead: 0.40e-6},
			"network": {Latency: 28e-6 * f, Gap: 12e-6, Beta: 1 / 110.0e6, Overhead: 1.2e-6},
		},
		SelfOverhead: 0.12e-6,
		HeteroSpread: 0.06,
		NoiseRel:     0.04,
		Seed:         1,
	}
}

// ringProgram is the uploaded op-stream of the program class: every rank
// computes, sends to its right neighbour and receives from its left.
func ringProgram(p, bytes int) [][]server.OpSpec {
	ranks := make([][]server.OpSpec, p)
	for i := range ranks {
		ranks[i] = []server.OpSpec{
			{Op: "compute", Seconds: 2e-6 * float64(1+i%4)},
			{Op: "isend", To: (i + 1) % p, Tag: 7, Bytes: bytes},
			{Op: "irecv", From: (i + p - 1) % p, Tag: 7},
			{Op: "wait", Req: 0},
			{Op: "wait", Req: 1},
		}
	}
	return ranks
}

const matrixProcs = 128

// matrixTemplate is the ≈0.5 MB body of the matrix class with a fixed-width
// slot (latency[0][1]) that each request overwrites with its own value.
func matrixTemplate() (body []byte, slotOff, slotLen int) {
	const slot = "2.80000000000e-05"
	p := matrixProcs
	mat := func(diag, off float64, withSlot bool) string {
		var b bytes.Buffer
		b.WriteByte('[')
		for i := 0; i < p; i++ {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteByte('[')
			for j := 0; j < p; j++ {
				if j > 0 {
					b.WriteByte(',')
				}
				switch {
				case withSlot && i == 0 && j == 1:
					b.WriteString(slot)
				case i == j:
					fmt.Fprintf(&b, "%.6e", diag)
				default:
					// a deterministic per-pair spread, so the machine is heterogeneous
					fmt.Fprintf(&b, "%.6e", off*(1+float64((i*31+j*17)%64)/512))
				}
			}
			b.WriteByte(']')
		}
		b.WriteByte(']')
		return b.String()
	}
	s := fmt.Sprintf(`{"profile":{"matrices":{"latency":%s,"gap":%s,"beta":%s,"overhead":%s,"selfOverhead":1.2e-07}},`+
		`"workload":{"kind":"allreduce","bytes":1024},"procs":%d}`,
		mat(0, 28e-6, true), mat(0, 12e-6, false), mat(0, 1/110.0e6, false), mat(0, 1.2e-6, false), p)
	body = []byte(s)
	return body, bytes.Index(body, []byte(slot)), len(slot)
}

// genServeCold returns the warm-up list (one request per class, run during
// set-up so machines and lazily built state exist) and the measured list, in
// which every request carries a fresh seed — or, for the matrix class, a
// perturbed entry — so every reply is a miss.
func genServeCold(seed int64, scale float64) (warm, ops []request) {
	r := newRNG(seed, "serve_cold")
	xeon := server.ProfileSpec{Preset: "xeon-cluster"}
	bytesPool := coldBytesPool()
	tmpl, slotOff, slotLen := matrixTemplate()

	build := func(class string, runSeed int64) request {
		sd := &runSeed
		switch class {
		case "coll_seed":
			kind := pick(r, []string{"allreduce", "allgather", "broadcast", "barrier"})
			w := server.WorkloadSpec{Kind: kind}
			if kind != "barrier" {
				w.Bytes = 1024
			}
			return point(class, &server.PredictRequest{Profile: xeon, Workload: w,
				Procs: pick(r, []int{64, 256, 512}), Seed: sd}, "miss")
		case "coll_bytes":
			return point(class, &server.PredictRequest{Profile: xeon,
				Workload: server.WorkloadSpec{Kind: pick(r, []string{"allreduce", "allgather"}), Bytes: pick(r, bytesPool)},
				Procs:    pick(r, []int{64, 128}), Seed: sd}, "miss")
		case "coll_profile":
			return point(class, &server.PredictRequest{Profile: server.ProfileSpec{Custom: coldProfile(r.intn(96))},
				Workload: server.WorkloadSpec{Kind: "allreduce", Bytes: 1024}, Procs: 256, Seed: sd}, "miss")
		case "sync":
			return point(class, &server.PredictRequest{Profile: xeon,
				Workload: server.WorkloadSpec{Kind: "sync", Supersteps: 3}, Procs: pick(r, []int{64, 256}), Seed: sd}, "miss")
		case "stencil":
			return point(class, &server.PredictRequest{Profile: xeon,
				Workload: server.WorkloadSpec{Kind: "stencil", Grid: 256, Iterations: 2}, Procs: pick(r, []int{16, 64}), Seed: sd}, "miss")
		case "traced":
			o := server.OptionsSpec{Trace: true}
			if r.intn(2) == 0 {
				o.TraceView = "rollup"
			}
			return point(class, &server.PredictRequest{Profile: xeon,
				Workload: server.WorkloadSpec{Kind: pick(r, []string{"allreduce", "barrier"})}, Procs: 256, Seed: sd, Options: o}, "miss")
		case "fault":
			plan := &fault.Plan{Slowdowns: []fault.Slowdown{{Rank: r.intn(512), Factor: 1.5}}}
			return point(class, &server.PredictRequest{Profile: xeon,
				Workload: server.WorkloadSpec{Kind: "allreduce", Bytes: 1024}, Procs: 512, Seed: sd, Faults: plan}, "miss")
		case "concurrent":
			return point(class, &server.PredictRequest{Profile: xeon,
				Workload: server.WorkloadSpec{Kind: "allreduce", Bytes: 1024}, Procs: 64, Seed: sd,
				Options: server.OptionsSpec{Engine: "concurrent"}}, "miss")
		case "program":
			return point(class, &server.PredictRequest{Profile: xeon,
				Workload: server.WorkloadSpec{Kind: "program", Ranks: ringProgram(32, 4096)}, Procs: 32, Seed: sd}, "miss")
		case "matrix":
			// Uploaded matrices take no seed; the perturbed entry makes the key fresh.
			patch := []byte(fmt.Sprintf("%.11e", 28e-6*(1+float64(runSeed)/1e7)))
			if len(patch) != slotLen {
				panic("benchmark: matrix slot width changed")
			}
			return request{Class: class, Body: tmpl, Patch: patch, PatchOff: slotOff, Expect: "miss",
				Kind: "allreduce", Procs: matrixProcs, Points: 1}
		}
		panic("benchmark: unknown class " + class)
	}

	for _, class := range coldClasses {
		warm = append(warm, build(class, int64(len(warm))+1))
	}
	block := append([]string(nil), coldClasses...)
	for b := blocksFor(coldBaseOps, scale, len(block)); b > 0; b-- {
		shuffle(r, block)
		for _, class := range block {
			ops = append(ops, build(class, int64(1000+len(ops))))
		}
	}
	return warm, ops
}

// ---- serve_sweep ----------------------------------------------------------

const (
	sweepBaseOps = 880 // sweeps at -seconds 10
	sweepPoints  = 64
	// sweepHead positions at the start of a block are always fresh, so a
	// repeat comes at least that many sweeps after the sweep it repeats:
	// far enough that the original has finished.
	sweepHead = 8
)

var (
	sweepBytes  = []int{64, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20}
	sweepScales = []server.ScaleSpec{{}, {Latency: 1.25}, {Latency: 1.5}, {Latency: 2}, {Beta: 0.75},
		{Beta: 0.5}, {Latency: 3, Gap: 3}, {Overhead: 1.1}}
	// sweepShapes × sweepBytes are the 40 distinct schedules, fewer than the
	// server's schedule cache holds.
	sweepShapes = []struct {
		kind  string
		procs int
	}{{"allreduce", 64}, {"allreduce", 128}, {"allgather", 64}, {"allgather", 128}, {"totalexchange", 64}}
)

// genServeSweep returns the warm-up list and the measured list. The strata
// are the five shapes in three forms each: fresh seed with a plain reply,
// fresh seed with a gzip reply, and a repeat — byte for byte the request,
// encoding included, that the block before (the warm-up list, for the first
// block) sent as fresh for that shape, plain and gzip in turn. A block of 15
// holds one of each; a repeat comes 9 to 29 positions after its original,
// near enough that the 64 points are still in the result cache.
func genServeSweep(seed int64, scale float64) (warm, ops []request) {
	r := newRNG(seed, "serve_sweep")
	fresh := func(shape int, runSeed int64, zip bool) request {
		sh := sweepShapes[shape]
		req := &server.PredictRequest{
			Profile:  server.ProfileSpec{Preset: "xeon-cluster"},
			Workload: server.WorkloadSpec{Kind: sh.kind},
			Procs:    sh.procs,
			Seed:     &runSeed,
			Sweep:    &server.SweepSpec{Bytes: sweepBytes, Scale: sweepScales},
		}
		return request{Class: "sweep_fresh", Body: mustJSON(req), Gzip: zip, Kind: sh.kind, Procs: sh.procs, Points: sweepPoints}
	}
	// before[zip][shape] is the fresh sweep the block before sent.
	var before [2][]request
	for zip := 0; zip < 2; zip++ {
		for shape := range sweepShapes {
			op := fresh(shape, int64(len(warm))+1, zip == 1)
			warm, before[zip] = append(warm, op), append(before[zip], op)
		}
	}
	blockSize := 3 * len(sweepShapes)
	for b := 0; b < blocksFor(sweepBaseOps, scale, blockSize); b++ {
		var block []request
		var now [2][]request
		for zip := 0; zip < 2; zip++ {
			for shape := range sweepShapes {
				op := fresh(shape, int64(1000+len(ops)+len(block)), zip == 1)
				block, now[zip] = append(block, op), append(now[zip], op)
			}
		}
		shuffle(r, block)
		for _, rep := range before[b%2] {
			rep.Class = "sweep_repeat"
			block = append(block, rep)
		}
		shuffle(r, block[sweepHead:])
		ops, before = append(ops, block...), now
	}
	return warm, ops
}
