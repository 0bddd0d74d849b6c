package bsp

import (
	"context"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hbsp/internal/barrier"
	"hbsp/internal/mpi"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
)

var update = flag.Bool("update", false, "rewrite the golden files")

// leftFold is a reduction operator whose result depends on the order its
// operands are combined in, so the golden pins rank-order combination.
func leftFold(a, b float64) float64 { return a*0.5 + b }

// dataCollectives names what collectiveData records, in call order.
var dataCollectives = []string{
	"mpi.Bcast", "mpi.Reduce", "mpi.Allreduce", "mpi.Allgather", "mpi.TotalExchange", "mpi.Barrier",
	"bsp.Broadcast", "bsp.Reduce", "bsp.AllReduce", "bsp.AllGather", "bsp.TotalExchange", "bsp.Sync",
}

// collectiveData runs every mpi.Comm schedule collective and every bsp.Ctx
// collective (and a two-put superstep) on one engine and returns, per
// collective, what each rank got back, rendered. The schedule form is that of
// the mpi collectives and of the superstep's synchronizer; the bsp.Ctx
// collectives always run their generator schedules.
func collectiveData(t *testing.T, engine simnet.Engine, form string, p int) map[string][]string {
	t.Helper()
	root := 2 % p
	got := map[string][]string{}
	for _, name := range dataCollectives {
		got[name] = make([]string, p)
	}
	record := func(name string, rank int, v any) { got[name][rank] = fmt.Sprint(v) }
	must := func(s sched.Schedule, err error) sched.Schedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	var bc, rd, ar, ag, te, ba sched.Schedule
	cfg := RunConfig{}
	if form == "tree" {
		tree := must(barrier.Tree(p))
		bc, rd, ar, ag, te, ba = tree, tree, tree, tree, tree, tree
		sync, err := NewScheduleSynchronizer(tree)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sync = sync
	} else {
		bc, rd = must(barrier.Broadcast(p, root, 8)), must(barrier.Reduce(p, root, 8))
		ar, ag = must(barrier.AllReduce(p, 8)), must(barrier.AllGather(p, 8))
		te, ba = must(barrier.TotalExchange(p, 8)), must(barrier.Dissemination(p))
	}
	m := collectiveMachine(t, p)
	o := simnet.DefaultOptions()
	o.Engine = engine
	cfg.Options = &o

	_, err := mpi.RunContext(context.Background(), m, func(c *mpi.Comm) error {
		rank := c.Rank()
		own := 1 / float64(rank+3)
		v, err := c.BcastSchedule(bc, root, fmt.Sprintf("from %d", rank))
		if err != nil {
			return err
		}
		record("mpi.Bcast", rank, v)
		r, err := c.ReduceSchedule(rd, root, own, leftFold)
		if err != nil {
			return err
		}
		record("mpi.Reduce", rank, r)
		a, err := c.AllreduceSchedule(ar, own, leftFold)
		if err != nil {
			return err
		}
		record("mpi.Allreduce", rank, a)
		g, err := c.AllgatherSchedule(ag, fmt.Sprintf("g%d", rank))
		if err != nil {
			return err
		}
		record("mpi.Allgather", rank, g)
		blocks := make([]any, p)
		for j := range blocks {
			blocks[j] = 1000*rank + j
		}
		x, err := c.TotalExchangeSchedule(te, blocks)
		if err != nil {
			return err
		}
		record("mpi.TotalExchange", rank, x)
		record("mpi.Barrier", rank, c.BarrierSchedule(ba))
		return nil
	}, o)
	if err != nil {
		t.Fatalf("%s p=%d mpi: %v", form, p, err)
	}

	_, err = RunContext(context.Background(), m, cfg, func(c *Ctx) error {
		pid := c.Pid()
		me := float64(pid)
		buf := []float64{-1, -1}
		if pid == root {
			buf = []float64{me + 0.25, -me}
		}
		b, err := c.Broadcast(root, buf)
		if err != nil {
			return err
		}
		record("bsp.Broadcast", pid, b)
		own := []float64{1 / (me + 3), me * me}
		r, err := c.Reduce(root, own, leftFold)
		if err != nil {
			return err
		}
		record("bsp.Reduce", pid, r)
		a, err := c.AllReduce(own, leftFold)
		if err != nil {
			return err
		}
		record("bsp.AllReduce", pid, a)
		g, err := c.AllGather([]float64{me, me / 7})
		if err != nil {
			return err
		}
		record("bsp.AllGather", pid, g)
		blocks := make([][]float64, p)
		for j := range blocks {
			blocks[j] = []float64{1000*me + float64(j), -me}[:1+j%2]
		}
		x, err := c.TotalExchange(blocks)
		if err != nil {
			return err
		}
		record("bsp.TotalExchange", pid, x)
		// A superstep of two puts per process, the second to a rank chosen so
		// some receive several and some none: the count exchange's data.
		area := make([]float64, 2*p)
		c.PushReg("x", area)
		if err := c.Sync(); err != nil {
			return err
		}
		if err := c.Put((pid+1)%p, "x", 2*pid, []float64{me + 0.5}); err != nil {
			return err
		}
		if err := c.Put((3*pid+1)%p, "x", 2*pid+1, []float64{-me - 0.5}); err != nil {
			return err
		}
		if err := c.Sync(); err != nil {
			return err
		}
		record("bsp.Sync", pid, area)
		return nil
	})
	if err != nil {
		t.Fatalf("%s p=%d bsp: %v", form, p, err)
	}
	return got
}

// TestCollectiveDataGolden pins what every schedule collective of both layers
// hands back on every rank, on both engines, over the streamed generator
// schedules and over the binary tree pattern (see collectiveData), against a
// recording: one digest of the per-rank renderings per collective. Values
// tell ranks apart, and the reductions use an order-sensitive operator.
func TestCollectiveDataGolden(t *testing.T) {
	var out strings.Builder
	for _, engine := range []simnet.Engine{simnet.EngineAuto, simnet.EngineConcurrent} {
		engineName := map[simnet.Engine]string{simnet.EngineAuto: "auto", simnet.EngineConcurrent: "concurrent"}[engine]
		for _, form := range []string{"streamed", "tree"} {
			for _, p := range []int{1, 2, 5, 13, 64} {
				got := collectiveData(t, engine, form, p)
				for _, name := range dataCollectives {
					sum := sha256.Sum256([]byte(strings.Join(got[name], "\n")))
					fmt.Fprintf(&out, "%s %s p=%d %s %x\n", engineName, form, p, name, sum[:8])
				}
			}
		}
	}
	path := filepath.Join("testdata", "collective_data.golden")
	if *update {
		if err := os.WriteFile(path, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/bsp -run %s -update`): %v", t.Name(), err)
	}
	if out.String() != string(want) {
		t.Fatalf("collective data diverged from %s:\n%s", path, out.String())
	}
}
