// Session: the public-SDK tour. A user program outside internal/ builds a
// machine from a platform preset, wraps it in an hbsp.Session with
// functional options, runs a BSP program with the schedule-driven user
// collectives, counts its supersteps from a recording, demonstrates context
// cancellation with the facade's typed errors, and swaps the superstep synchronizer for a verified collective
// schedule.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"hbsp"
	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/trace"
)

func main() {
	log.SetFlags(0)
	const procs = 16

	// A machine: the Xeon preset instantiated for 16 ranks.
	machine, err := cluster.Xeon8x2x4().Machine(procs)
	if err != nil {
		log.Fatal(err)
	}

	// A session: functional options instead of option structs.
	rec := trace.NewRecorder()
	sess, err := hbsp.New(machine,
		hbsp.WithSeed(42),
		hbsp.WithDeadline(time.Minute),
		hbsp.WithRecorder(rec),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session: %s\n", machine)

	// A BSP program using the user collectives: every process contributes
	// its rank, AllReduce sums the contributions identically everywhere,
	// AllGather collects one block per process, and the root broadcasts a
	// result vector.
	res, err := sess.RunBSP(context.Background(), func(c *bsp.Ctx) error {
		sum, err := c.AllReduce([]float64{float64(c.Pid())}, bsp.OpSum)
		if err != nil {
			return err
		}
		blocks, err := c.AllGather([]float64{float64(c.Pid() * c.Pid())})
		if err != nil {
			return err
		}
		verdict := []float64{sum[0], blocks[c.NProcs()-1][0]}
		if _, err := c.Broadcast(0, verdict); err != nil {
			return err
		}
		if c.Pid() == 0 {
			fmt.Printf("allreduce sum: %g, last gathered block: %g\n", verdict[0], verdict[1])
		}
		return c.Sync()
	})
	if err != nil {
		log.Fatal(err)
	}
	// Every Sync leaves a superstep mark on each rank's lane; count rank 0's.
	tr, err := rec.Trace()
	if err != nil {
		log.Fatal(err)
	}
	supersteps := 0
	for _, ev := range tr.LaneEvents(0) {
		if ev.Kind == trace.KindSuperstep {
			supersteps++
		}
	}
	fmt.Printf("virtual makespan: %.3es over %d supersteps (%d messages)\n",
		res.MakeSpan, supersteps, res.Messages)

	// Context cancellation: a program that deadlocks (process 0 deserts the
	// superstep) is aborted through the context, surfacing the typed error.
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	_, err = sess.RunBSP(ctx, func(c *bsp.Ctx) error {
		if c.Pid() == 0 {
			return nil
		}
		return c.Sync()
	})
	fmt.Printf("cancelled run: aborted=%v deadline=%v\n",
		errors.Is(err, hbsp.ErrAborted), errors.Is(err, hbsp.ErrDeadline))

	// Options compose: the superstep synchronizer can be any verified
	// collective schedule. Here the Chapter 5 tree barrier replaces the
	// dissemination default, bit-for-bit deterministic either way.
	tree, err := collective.Tree(procs)
	if err != nil {
		log.Fatal(err)
	}
	treeSess, err := hbsp.New(machine, hbsp.WithSeed(42), hbsp.WithScheduleSynchronizer(tree))
	if err != nil {
		log.Fatal(err)
	}
	program := func(c *bsp.Ctx) error { return c.Sync() }
	base, err := sess.RunBSP(context.Background(), program)
	if err != nil {
		log.Fatal(err)
	}
	treed, err := treeSess.RunBSP(context.Background(), program)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("one-superstep makespan, dissemination sync: %.3es\n", base.MakeSpan)
	fmt.Printf("one-superstep makespan, tree-schedule sync: %.3es\n", treed.MakeSpan)

	// Validation is part of the facade: a structurally broken profile is
	// rejected at New with a typed error instead of NaN-propagating.
	broken := cluster.Xeon8x2x4()
	broken.SelfOverhead = 0
	bm, err := broken.Machine(8)
	if err != nil {
		log.Fatal(err)
	}
	_, err = hbsp.New(bm)
	fmt.Printf("broken profile rejected: %v\n", errors.Is(err, hbsp.ErrInvalidMachine))
}
