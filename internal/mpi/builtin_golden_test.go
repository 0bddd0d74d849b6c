package mpi_test

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbsp/internal/bsp"
	"hbsp/internal/mpi"
	"hbsp/internal/platform"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// goldenMachine is the noisy thesis machine or the noiseless scaled cluster.
func goldenMachine(t *testing.T, noisy bool, p int) *platform.Machine {
	t.Helper()
	var (
		m   *platform.Machine
		err error
	)
	if noisy {
		m, err = platform.Xeon8x2x4().Machine(p)
	} else {
		m, err = platform.XeonClusterMachine(p)
	}
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// leftFold is a reduction operator whose result depends on the order its
// operands are combined in, so the golden pins rank-order combination.
func leftFold(a, b float64) float64 { return a*0.5 + b }

// skew is the compute a rank spends before round k's collectives: unequal, so
// every collective starts from staggered clocks.
func skew(rank, k int) float64 { return float64(rank%3+1) * float64(k+1) * 1e-5 }

// digest renders a run's per-rank times (as bits) and what the ranks got
// back, plus the superstep marks of a recording when there is one.
func digest(res *simnet.Result, values []string, rec *trace.Recorder) (string, error) {
	times := make([]string, len(res.Times))
	for r, tm := range res.Times {
		times[r] = fmt.Sprintf("%016x", math.Float64bits(tm))
	}
	ts := sha256.Sum256([]byte(strings.Join(times, " ")))
	vs := sha256.Sum256([]byte(strings.Join(values, "\n")))
	line := fmt.Sprintf("makespan=%016x msgs=%d bytes=%d times=%x values=%x",
		math.Float64bits(res.MakeSpan), res.Messages, res.Bytes, ts[:8], vs[:8])
	if rec == nil {
		return line, nil
	}
	tr, err := rec.Trace()
	if err != nil {
		return "", err
	}
	var marks []string
	for r := range tr.NumLanes() {
		for _, ev := range tr.LaneEvents(r) {
			if ev.Kind == trace.KindSuperstep {
				marks = append(marks, fmt.Sprintf("%d/%d/%016x", ev.Rank, ev.Step, math.Float64bits(ev.T0)))
			}
		}
	}
	ms := sha256.Sum256([]byte(strings.Join(marks, " ")))
	return fmt.Sprintf("%s supersteps=%d marks=%x", line, len(marks), ms[:8]), nil
}

// builtinProbe runs three rounds of skewed compute, Barrier, Allreduce,
// Allgather and Bcast from a rotating root through mpi.Comm's built-in
// collectives and renders the outcome.
func builtinProbe(t *testing.T, m simnet.Machine, o simnet.Options) string {
	t.Helper()
	p := m.Procs()
	values := make([]string, p)
	res, err := mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error {
		rank := c.Rank()
		var got []string
		for k := 0; k < 3; k++ {
			c.Compute(skew(rank, k))
			c.Barrier()
			a := c.Allreduce(1/float64(rank+k+3), leftFold)
			g := c.Allgather(fmt.Sprintf("g%d.%d", rank, k))
			root := k % p
			var own any
			if rank == root {
				own = fmt.Sprintf("b%d.%d", root, k)
			}
			b := c.Bcast(own, root)
			got = append(got, fmt.Sprintf("%016x %v %v", math.Float64bits(a), g, b))
		}
		values[rank] = strings.Join(got, " | ")
		return nil
	}, o)
	if err != nil {
		t.Fatal(err)
	}
	line, err := digest(res, values, o.Recorder)
	if err != nil {
		t.Fatal(err)
	}
	return line
}

// bspProbe runs three rounds of every bsp.Ctx collective and a Sync, and
// renders the outcome with the run's collapse decision.
func bspProbe(t *testing.T, m *platform.Machine, o simnet.Options) string {
	t.Helper()
	p := m.Procs()
	values := make([]string, p)
	res, err := bsp.RunContext(context.Background(), m, bsp.RunConfig{Options: &o}, func(c *bsp.Ctx) error {
		pid := c.Pid()
		me := float64(pid)
		var got []string
		for k := 0; k < 3; k++ {
			c.Compute(skew(pid, k))
			root := k % p
			buf := []float64{-1, -1}
			if pid == root {
				buf = []float64{me + 0.25, float64(k)}
			}
			b, err := c.Broadcast(root, buf)
			if err != nil {
				return err
			}
			own := []float64{1 / (me + float64(k) + 3), me * me}
			r, err := c.Reduce(root, own, leftFold)
			if err != nil {
				return err
			}
			a, err := c.AllReduce(own, leftFold)
			if err != nil {
				return err
			}
			g, err := c.AllGather([]float64{me, float64(k)})
			if err != nil {
				return err
			}
			blocks := make([][]float64, p)
			for j := range blocks {
				blocks[j] = []float64{1000*me + float64(j), float64(k)}[:1+j%2]
			}
			x, err := c.TotalExchange(blocks)
			if err != nil {
				return err
			}
			if err := c.Sync(); err != nil {
				return err
			}
			got = append(got, fmt.Sprint(b, r, a, g, x))
		}
		values[pid] = strings.Join(got, " | ")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	line, err := digest(res, values, o.Recorder)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%s collapse=%v/%d/%q", line, res.Collapse.Applied, res.Collapse.Classes, res.Collapse.Reason)
}

// recordings lists the recorded settings a golden row runs with: both on the
// default engine, where a recorder rules out the collapsed evaluation, and
// only recorded on the concurrent one, whose walk a recorder does not change.
func recordings(e simnet.Engine) []bool {
	if e == simnet.EngineConcurrent {
		return []bool{true}
	}
	return []bool{false, true}
}

// TestSharedBuiltinCollectivesGolden pins mpi.Comm's built-in collectives
// (Barrier, Allreduce, Allgather, Bcast) and the bsp.Ctx collectives against
// a recording: per configuration — process count, noisy or noiseless
// machine, acknowledged sends or not (mpi only), engine, recorded or not
// (recordings) —
// the per-rank finishing-time bits, the traffic, what every rank got back
// and, on recorded runs, the superstep marks. On the concurrent engine the
// collectives' boards are read across rank goroutines, so the race detector
// has something to check.
func TestSharedBuiltinCollectivesGolden(t *testing.T) {
	engines := []struct {
		name string
		e    simnet.Engine
	}{{"auto", simnet.EngineAuto}, {"concurrent", simnet.EngineConcurrent}}
	machineName := map[bool]string{true: "noisy", false: "noiseless"}
	var out strings.Builder
	for _, p := range []int{1, 2, 3, 5, 8, 12, 13, 16, 33, 64} {
		for _, noisy := range []bool{true, false} {
			m := goldenMachine(t, noisy, p)
			for _, ack := range []bool{true, false} {
				for _, eng := range engines {
					for _, recorded := range recordings(eng.e) {
						o := simnet.DefaultOptions()
						o.AckSends, o.Engine = ack, eng.e
						if recorded {
							o.Recorder = trace.NewRecorder()
						}
						fmt.Fprintf(&out, "mpi p=%d %s ack=%v %s recorded=%v %s\n",
							p, machineName[noisy], ack, eng.name, recorded, builtinProbe(t, m, o))
					}
				}
			}
		}
	}
	for _, p := range []int{1, 2, 5, 8, 13, 16, 33, 64} {
		for _, noisy := range []bool{true, false} {
			m := goldenMachine(t, noisy, p)
			for _, eng := range engines {
				for _, recorded := range recordings(eng.e) {
					o := simnet.DefaultOptions()
					o.Engine = eng.e
					if recorded {
						o.Recorder = trace.NewRecorder()
					}
					fmt.Fprintf(&out, "bsp p=%d %s %s recorded=%v %s\n",
						p, machineName[noisy], eng.name, recorded, bspProbe(t, m, o))
				}
			}
		}
	}
	path := filepath.Join("testdata", "builtin_collectives.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/mpi -run %s -update`): %v", t.Name(), err)
	}
	if out.String() != string(want) {
		t.Fatalf("collectives diverged from %s:\n%s", path, out.String())
	}
}
