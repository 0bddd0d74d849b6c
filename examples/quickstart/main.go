// Quickstart: build a synthetic cluster platform, wrap it in an hbsp.Session,
// benchmark its pairwise communication parameters, predict the cost of the
// synchronization and of a collective with the matrix cost model, and compare
// the predictions against the simulated execution through the facade.
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"hbsp"
	"hbsp/bench"
	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/kernels"
	"hbsp/matrix"
	"hbsp/model"
)

func main() {
	log.SetFlags(0)
	const procs = 16
	const localElems = 64 * 1024

	// 1. Instantiate a platform profile (8 nodes × 2 sockets × 4 cores) and
	// wrap it in a session: the machine is validated here, and every run
	// below inherits the seed and deadline.
	prof := cluster.Xeon8x2x4()
	machine, err := prof.Machine(procs)
	if err != nil {
		log.Fatal(err)
	}
	sess, err := hbsp.New(machine, hbsp.WithSeed(1), hbsp.WithDeadline(time.Minute))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform: %s\n", machine)

	// 2. Benchmark the pairwise latency/overhead/bandwidth matrices — the
	// matrix-valued BSP parameters that replace the classic scalars.
	pair, err := bench.MeasurePairwise(machine, bench.DefaultPairwiseOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("benchmarked %dx%d parameter matrices (max latency %.1f us)\n",
		procs, procs, pair.Latency.Max()*1e6)

	// 3. Predict the synchronization cost of a superstep: the dissemination
	// schedule carrying the count-exchange payload, priced by the cost model
	// on the benchmarked matrices.
	diss, err := collective.Dissemination(procs)
	if err != nil {
		log.Fatal(err)
	}
	syncPred, err := collective.Predict(collective.KnowledgeSized(diss, 0, 4*procs),
		pair.Params(), collective.DefaultCostOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted synchronization cost: %.3e s\n", syncPred.Total)

	// 4. Assemble the heterogeneous superstep model: every process applies
	// the DAXPY kernel to its local block and sends one 8 KiB message to its
	// right neighbour; the model prices computation, communication and the
	// synchronization from step 3.
	req := model.UniformRequirement(procs, []float64{localElems})
	cost := matrix.NewDense(procs, 1)
	msgs := matrix.NewDense(procs, procs)
	data := matrix.NewDense(procs, procs)
	for p := 0; p < procs; p++ {
		cost.Set(p, 0, prof.SecondsPerElement(p%prof.Topology.Nodes, kernels.DAXPY, localElems))
		next := (p + 1) % procs
		msgs.Set(p, next, 1)
		data.Set(p, next, 8*1024)
	}
	step := model.Superstep{
		Compute:      model.ComputeModel{Requirement: req, Cost: cost},
		Comm:         model.CommModel{Messages: msgs, Latency: pair.Latency, Data: data, Beta: pair.Beta},
		SyncCost:     syncPred.Total,
		MaskableComm: 1,
		MaskableComp: 0.9,
	}
	pred, err := step.Predict()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("predicted superstep time: %.3e s (imbalance %.1f%%)\n",
		pred.Total, 100*model.Imbalance(pred.CompTimes))

	// 5. Execute the same superstep through the session and compare.
	res, err := sess.RunBSP(context.Background(), func(ctx *bsp.Ctx) error {
		buf := make([]float64, 1024)
		ctx.PushReg("buf", buf)
		if err := ctx.Sync(); err != nil {
			return err
		}
		next := (ctx.Pid() + 1) % ctx.NProcs()
		if err := ctx.Put(next, "buf", 0, make([]float64, 1024)); err != nil {
			return err
		}
		ctx.ComputeKernel(kernels.DAXPY, localElems, 1)
		return ctx.Sync()
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated superstep time: %.3e s (prediction / measurement %.2f)\n",
		res.MakeSpan, pred.Total/res.MakeSpan)

	// 6. The same cost model prices any collective: predict the allreduce
	// schedule and compare against the user-facing AllReduce executing that
	// schedule through the facade.
	ar, err := collective.AllReduce(procs, 8)
	if err != nil {
		log.Fatal(err)
	}
	arPred, err := collective.Predict(ar, pair.Params(), collective.CostOptionsFor(collective.SemAllReduce))
	if err != nil {
		log.Fatal(err)
	}
	var measured float64
	_, err = sess.RunBSP(context.Background(), func(ctx *bsp.Ctx) error {
		t0 := ctx.Time()
		if _, err := ctx.AllReduce([]float64{float64(ctx.Pid())}, bsp.OpSum); err != nil {
			return err
		}
		if ctx.Pid() == 0 {
			measured = ctx.Time() - t0
		}
		return nil
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("allreduce: predicted %.3e s, simulated %.3e s (ratio %.2f)\n",
		arPred.Total, measured, arPred.Total/measured)
}
