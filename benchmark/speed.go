package main

import (
	"encoding/json"
	"sort"
	"strconv"
	"sync"
	"time"
)

// The sandbox the benchmark runs in is shared, and its speed moves by up to a
// factor of two for seconds to minutes at a time: the same list reads 7.5 s
// and 14.5 s a few minutes apart, CPU time stretching with wall time. No
// bound survives that, so every time the harness reports is scaled to
// reference speed. A run is measured in short stretches; between two
// stretches the workload is paused and a fixed kernel is timed, and the time
// of a stretch counts at the speed the kernel ran at just before and just
// after it. Nothing is set aside and nothing is kept between runs: every
// operation counts, each at the speed of its own stretch.

// probeRefMs is what the kernel takes on the reference machine (two cores of
// a Xeon at 2.1 GHz) when little disturbs it: the tenth percentile of two
// thousand readings taken over an hour. It only fixes the unit: reported
// times are those of a machine that runs the kernel in this time.
const probeRefMs = 9.0

// The kernel is the work the system's layers do, in the standard library's
// terms and on inputs of its own, so that no change to the repo moves it:
// decoding and encoding a reply-sized JSON document, a max-plus sweep over
// float arrays, and building, reading out and sorting a map of small
// allocations. Run alone each part answers a disturbance differently from
// the workloads; their sum follows all five (README, "Reference speed").
type probeDoc struct {
	Workload string             `json:"workload"`
	Procs    int                `json:"procs"`
	Times    []float64          `json:"times"`
	Params   map[string]float64 `json:"params"`
	Stages   []probeStage       `json:"stages"`
}

type probeStage struct {
	Stage int     `json:"stage"`
	Kind  string  `json:"kind"`
	Cost  float64 `json:"cost"`
}

var probeBody = func() []byte {
	d := probeDoc{Workload: "allreduce", Procs: 256, Params: map[string]float64{}}
	for i := 0; i < 256; i++ {
		d.Times = append(d.Times, float64(i)*1.0001e-6)
	}
	for i := 0; i < 16; i++ {
		d.Params["p"+strconv.Itoa(i)] = float64(i) / 3
		d.Stages = append(d.Stages, probeStage{i, "dissemination", float64(i) * 0.77})
	}
	b, err := json.Marshal(d)
	if err != nil {
		panic(err)
	}
	return b
}()

// probeSink keeps the kernel's results alive, one cache line per goroutine.
var probeSink [numClients][8]float64

func probeKernel(g int) {
	var acc float64
	for i := 0; i < 25; i++ {
		var d probeDoc
		json.Unmarshal(probeBody, &d)
		b, _ := json.Marshal(&d)
		acc += float64(len(b))
	}

	const n = 1 << 15
	x, y := make([]float64, n), make([]float64, n)
	for i := range x {
		x[i], y[i] = float64(i)*1e-6, float64(n-i)*1e-6
	}
	for r := 0; r < 50; r++ {
		for i := range x {
			if v := x[i] + y[(i+r*7)&(n-1)]*1.0000001; v > x[i] {
				x[i] = v
			}
		}
	}
	acc += x[17]

	for r := 0; r < 3; r++ {
		m := map[int]*[4]float64{}
		for i := 0; i < 5000; i++ {
			m[i*7919%10007] = &[4]float64{float64(i)}
		}
		keys := make([]int, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Ints(keys)
		acc += float64(keys[3])
	}
	probeSink[g][0] += acc
}

// probe runs the kernel on as many goroutines at once as the load model has
// clients and returns the milliseconds it took them on average. (Over ten
// runs of each workload the average followed the workloads a little more
// closely than the time until the last goroutine was done.)
func probe() float64 {
	var wg sync.WaitGroup
	var ms [numClients]float64
	for g := range ms {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			probeKernel(g)
			ms[g] = float64(time.Since(start).Nanoseconds()) / 1e6
		}()
	}
	wg.Wait()
	var sum float64
	for _, v := range ms {
		sum += v
	}
	return sum / numClients
}

// stretch is a part of a run during which the workload ran, between two
// probes, with the machine's speed over it: 1 at reference speed, 0.5 when
// the kernel took twice probeRefMs.
type stretch struct {
	from, to int64 // unix nanoseconds
	speed    float64
}

// speedOf is the speed of a stretch bracketed by two probe readings.
func speedOf(beforeMs, afterMs float64) float64 { return probeRefMs / ((beforeMs + afterMs) / 2) }

// speedLog is the stretches of one run in time order.
type speedLog []stretch

// seconds returns the time the workload ran between a and b (unix
// nanoseconds): ref with each stretch's share scaled to reference speed, raw
// as run. Time between stretches, when the workload was paused for a probe,
// counts in neither.
func (l speedLog) seconds(a, b int64) (ref, raw float64) {
	for _, st := range l {
		if from, to := max(a, st.from), min(b, st.to); to > from {
			raw += float64(to-from) / 1e9
			ref += float64(to-from) / 1e9 * st.speed
		}
	}
	return ref, raw
}
