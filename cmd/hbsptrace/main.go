// Command hbsptrace runs a named workload under the trace recorder and
// prints what the trace subsystem learned: the per-category time breakdown,
// per-superstep straggler attribution, h-relation statistics and the
// critical path whose end time equals the run's virtual makespan
// bit-for-bit. With -chrome it additionally exports the event timeline as
// Chrome trace-event JSON, loadable in chrome://tracing or Perfetto
// (ui.perfetto.dev → "Open trace file"); traces over the event budget are
// lane-sampled automatically, and -chrome-full forces the full export (which
// is refused over budget unless -chrome-budget raises or disables it — use
// -rollup for a bounded aggregated view instead).
//
// Usage:
//
//	go run ./cmd/hbsptrace [-workload name] [-p procs] [-seed n]
//	                       [-chrome out.json] [-chrome-full] [-chrome-budget n]
//	                       [-events] [-rollup] [-topk n] [-hops n] [-steps n]
//	                       [-spill out.bin] [-from-spill in.bin]
//
// -spill serializes the trace to the compact binary spill format (the
// canonical byte layout: identical content yields identical bytes), and
// -from-spill analyzes a previously written spill file instead of recording
// a run — every output mode works directly off the file without
// materializing the trace in RAM, and what the chunk reader did (chunks
// decoded, bytes read, window cache hits) is printed on stderr afterwards.
//
// Workloads:
//
//	dissemination-sync     BSP supersteps with skewed compute and ring puts,
//	                       synchronized by the default dissemination count
//	                       exchange (the repository's reference workload)
//	barrier:dissemination  one execution of the dissemination barrier
//	barrier:tree           one execution of the binomial-tree barrier
//	barrier:linear         one execution of the linear barrier
//	totalexchange          one all-to-all personalized exchange (64 B blocks)
//
// All workloads run on the scaled synthetic Xeon cluster (8 cores per node,
// with the profile's run-to-run noise), so -seed changes the jitter and
// -seed alone reproduces a trace exactly. The default output is the text
// report; -events dumps the merged event stream instead (the deterministic
// rendering the golden tests pin).
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"

	"hbsp"
	"hbsp/bsp"
	"hbsp/cluster"
	"hbsp/collective"
	"hbsp/mpi"
	"hbsp/trace"
)

// config selects the run the trace is recorded from.
type config struct {
	workload string
	procs    int
	seed     int64
}

// workloads maps the -workload names to their bodies; each runs the session
// to completion with the recorder attached.
var workloads = map[string]func(*hbsp.Session, int) error{
	"dissemination-sync":    runDisseminationSync,
	"barrier:dissemination": runBarrier(collective.Dissemination),
	"barrier:tree":          runBarrier(collective.Tree),
	"barrier:linear": func(s *hbsp.Session, p int) error {
		return runBarrier(func(p int) (*collective.Pattern, error) { return collective.Linear(p, 0) })(s, p)
	},
	"totalexchange": runTotalExchange,
}

func main() {
	log.SetFlags(0)
	workload := flag.String("workload", "dissemination-sync", "workload to trace (see the command doc for the list)")
	procs := flag.Int("p", 64, "number of ranks")
	seed := flag.Int64("seed", 1, "run seed (drives the machine's deterministic noise)")
	chrome := flag.String("chrome", "", "also write a Chrome trace-event JSON export to this path")
	chromeFull := flag.Bool("chrome-full", false, "force the full Chrome export instead of lane-sampling over budget")
	chromeBudget := flag.Int("chrome-budget", trace.DefaultChromeBudget, "event budget for the full Chrome export (0 = unlimited)")
	events := flag.Bool("events", false, "dump the merged event stream instead of the report")
	rollup := flag.Bool("rollup", false, "print the aggregated per-superstep/per-stage rollup instead of the report")
	topk := flag.Int("topk", 8, "worst-slack ranks to list in the rollup")
	hops := flag.Int("hops", 24, "maximum critical-path hops to print")
	steps := flag.Int("steps", 0, "maximum per-superstep rows to print (0 = all)")
	spill := flag.String("spill", "", "also serialize the trace to this path in the binary spill format")
	fromSpill := flag.String("from-spill", "", "analyze this spill file instead of recording a run")
	flag.Parse()

	var src trace.Source
	if *fromSpill != "" {
		sp, err := trace.OpenSpillFile(*fromSpill)
		if err != nil {
			log.Fatalf("hbsptrace: %v", err)
		}
		defer sp.Close()
		src = sp
	} else {
		tr, err := record(config{workload: *workload, procs: *procs, seed: *seed})
		if err != nil {
			log.Fatalf("hbsptrace: %v", err)
		}
		src = tr
	}
	if *spill != "" {
		if err := writeFile(*spill, func(w io.Writer) error { return trace.WriteSpill(w, src) }); err != nil {
			log.Fatalf("hbsptrace: spill export: %v", err)
		}
	}
	if *chrome != "" {
		if err := exportChrome(*chrome, src, *chromeFull, *chromeBudget); err != nil {
			log.Fatalf("hbsptrace: chrome export: %v", err)
		}
	}
	switch {
	case *events:
		if err := trace.WriteEvents(os.Stdout, src); err != nil {
			log.Fatalf("hbsptrace: %v", err)
		}
	case *rollup:
		r, err := trace.RollupOf(src, trace.RollupOptions{TopK: *topk})
		if err != nil {
			log.Fatalf("hbsptrace: %v", err)
		}
		if err := trace.WriteRollup(os.Stdout, r); err != nil {
			log.Fatalf("hbsptrace: %v", err)
		}
	default:
		if err := writeReport(os.Stdout, src, *hops, *steps); err != nil {
			log.Fatalf("hbsptrace: %v", err)
		}
	}
	if sp, ok := src.(*trace.Spill); ok {
		st := sp.ReadStats()
		fmt.Fprintf(os.Stderr, "spill reads: %d chunks decoded, %d bytes read, %d window cache hits\n",
			st.ChunksDecoded, st.BytesRead, st.CacheHits)
	}
}

// writeFile creates path, streams body into it and reports the write on
// stderr.
func writeFile(path string, body func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := body(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// exportChrome writes the Chrome trace-event export. The default mode
// lane-samples traces over the event budget; -chrome-full demands every
// lane, and is refused over budget (a P=65536 trace renders to multi-GB
// JSON no viewer loads) unless -chrome-budget raises or disables the limit.
func exportChrome(path string, src trace.Source, full bool, budget int) error {
	if full {
		if n := trace.NumEventsOf(src); budget > 0 && n > budget {
			return fmt.Errorf("trace has %d events, over the full-export budget of %d; "+
				"drop -chrome-full for a lane-sampled export, use -rollup for an aggregated view, "+
				"or raise -chrome-budget (0 = unlimited) to force it", n, budget)
		}
		return writeFile(path, func(w io.Writer) error { return trace.WriteChrome(w, src) })
	}
	var sampled bool
	err := writeFile(path, func(w io.Writer) error {
		var err error
		sampled, err = trace.WriteChromeAuto(w, src, trace.ChromeOptions{MaxEvents: budget})
		return err
	})
	if err == nil && sampled {
		fmt.Fprintf(os.Stderr, "trace exceeds the %d-event budget; exported a lane-sampled timeline (-chrome-full forces every lane)\n", budget)
	}
	return err
}

// record runs the selected workload under a fresh recorder and returns the
// merged trace.
func record(cfg config) (*trace.Trace, error) {
	body, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have: %v)", cfg.workload, workloadNames())
	}
	if cfg.procs < 2 {
		return nil, fmt.Errorf("workloads need at least 2 ranks, got %d", cfg.procs)
	}
	// The scaled Xeon profile keeps 8 cores per node and the preset's noise,
	// so placement effects and straggler jitter stay visible at any P.
	nodes := (cfg.procs + 7) / 8
	if nodes < 8 {
		nodes = 8
	}
	m, err := cluster.XeonCluster(nodes).Machine(cfg.procs)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder()
	rec.SetLabel(fmt.Sprintf("%s, P=%d", cfg.workload, cfg.procs))
	sess, err := hbsp.New(m, hbsp.WithSeed(cfg.seed), hbsp.WithRecorder(rec))
	if err != nil {
		return nil, err
	}
	if err := body(sess, cfg.procs); err != nil {
		return nil, err
	}
	return rec.Trace()
}

// writeReport prints the text report, asserting the acceptance invariant:
// the critical path must end exactly at the makespan.
func writeReport(w io.Writer, src trace.Source, hops, steps int) error {
	cp, err := trace.CriticalPathOf(src)
	if err != nil {
		return err
	}
	if span := src.RunSummary().MakeSpan; cp.End != span {
		return fmt.Errorf("critical path ends at %v, makespan is %v — trace is incomplete", cp.End, span)
	}
	return trace.WriteReport(w, src, trace.ReportOptions{MaxHops: hops, MaxSteps: steps})
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for name := range workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// runDisseminationSync is the reference BSP workload: a registration
// superstep, then three supersteps of placement-skewed compute and ring
// puts, each ended by the default dissemination count exchange.
func runDisseminationSync(sess *hbsp.Session, procs int) error {
	_, err := sess.RunBSP(context.Background(), func(c *bsp.Ctx) error {
		p := c.NProcs()
		area := make([]float64, p)
		c.PushReg("x", area)
		if err := c.Sync(); err != nil {
			return err
		}
		for step := 0; step < 3; step++ {
			// Skewed compute: ranks land in four classes so every superstep
			// has genuine stragglers for the breakdown to attribute.
			c.Compute(5e-6 * float64(1+(c.Pid()+step)%4))
			right := (c.Pid() + 1 + step) % p
			if err := c.Put(right, "x", c.Pid(), []float64{float64(step)}); err != nil {
				return err
			}
			if err := c.Sync(); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// runBarrier executes one verified barrier schedule under the MPI layer.
func runBarrier(gen func(p int) (*collective.Pattern, error)) func(*hbsp.Session, int) error {
	return func(sess *hbsp.Session, procs int) error {
		pat, err := gen(procs)
		if err != nil {
			return err
		}
		_, err = sess.RunMPI(context.Background(), func(c *mpi.Comm) error {
			return c.BarrierSchedule(pat)
		})
		return err
	}
}

// runTotalExchange performs one all-to-all personalized exchange of 64-byte
// blocks through the schedule engine's heaviest collective.
func runTotalExchange(sess *hbsp.Session, procs int) error {
	pat, err := collective.TotalExchange(procs, 64)
	if err != nil {
		return err
	}
	_, err = sess.RunMPI(context.Background(), func(c *mpi.Comm) error {
		blocks := make([]any, procs)
		for i := range blocks {
			blocks[i] = float64(c.Rank()*procs + i)
		}
		got, err := c.TotalExchangeSchedule(pat, blocks)
		if err != nil {
			return err
		}
		for src, v := range got {
			if want := float64(src*procs + c.Rank()); v != want {
				return fmt.Errorf("rank %d received %v from %d, want %v", c.Rank(), v, src, want)
			}
		}
		return nil
	})
	return err
}
