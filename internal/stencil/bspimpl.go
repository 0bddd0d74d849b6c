package stencil

import (
	"context"
	"errors"
	"fmt"

	"hbsp/internal/bsp"
	"hbsp/internal/kernels"
	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/stats"
)

// RunResult summarizes one stencil run.
type RunResult struct {
	// Implementation names the variant ("bsp", "mpi", "mpi+r", "hybrid").
	Implementation string
	// Procs is the number of communicating processes.
	Procs int
	// Iterations is the number of Jacobi sweeps performed.
	Iterations int
	// WallTime is the simulated wall-clock time of the whole run (slowest
	// process).
	WallTime float64
	// PerIteration is WallTime divided by Iterations.
	PerIteration float64
	// Checksum is the sum of all grid cells after the final sweep; identical
	// configurations must produce identical checksums across
	// implementations (up to floating-point summation order). A synthetic
	// run sweeps nothing and reports the initial condition's sum, computed
	// once per decomposition.
	Checksum float64
}

var ghostNames = [numDirs]string{North: "ghostN", South: "ghostS", West: "ghostW", East: "ghostE"}

// opposite returns the direction opposite to dir: North and South, West and
// East are pairs of adjacent constants.
func opposite(dir int) int { return dir ^ 1 }

// RunBSP executes the BSP implementation: ghost edges are committed with
// one-sided puts at the start of each iteration, a tunable fraction of the
// ghost-independent interior is computed before the synchronization (the
// overlap window), and the shadow regions are completed afterwards.
// overlapFraction = 1 is the implementation of Section 8.3.1; smaller values
// shrink the overlap window and are used by the Section 8.6 adaptation study.
// A synthetic run prices Static on the direct engine, touching no cell; its
// checksums are the decomposition's initialChecksums.
func RunBSP(m *platform.Machine, cfg Config, overlapFraction float64) (*RunResult, error) {
	if m == nil {
		return nil, errors.New("stencil: nil machine")
	}
	p := m.Procs()
	sp, err := Static(p, cfg, overlapFraction)
	if err != nil {
		return nil, err
	}
	var (
		checksums []float64
		res       *simnet.Result
	)
	if cfg.Synthetic {
		d, _ := Decompose(cfg.N, p) // Static accepted it
		checksums = initialChecksums(d)
		res, err = bsp.RunStatic(context.Background(), m, nil, sp, simnet.DefaultOptions())
	} else {
		checksums = make([]float64, p)
		body, _ := BSPProgram(p, cfg, overlapFraction, checksums) // Static's checks
		res, err = bsp.Run(m, body)
	}
	if err != nil {
		return nil, err
	}
	return summarize("bsp", p, cfg, res.MakeSpan, checksums), nil
}

// halo is what one rank exchanges and computes per iteration, fixed by the
// decomposition: its neighbours and its edge length toward each, the cells
// it packs and unpacks, its deep interior (no cell of which reads a ghost),
// the part of that in the overlap window, and its shadow regions.
type halo struct {
	neigh, edge                    [numDirs]int
	exchanged, deep, early, shadow int
}

func haloOf(d Decomposition, rank int, overlapFraction float64) halo {
	rows, cols := d.LocalSize(rank)
	h := halo{neigh: d.Neighbors(rank), edge: [numDirs]int{North: cols, South: cols, West: rows, East: rows}}
	for dir, nb := range h.neigh {
		if nb >= 0 {
			h.exchanged += h.edge[dir]
		}
	}
	if rows > 2 && cols > 2 {
		h.deep = (rows - 2) * (cols - 2)
	}
	h.early = int(float64(h.deep) * overlapFraction)
	h.shadow = rows*cols - h.deep
	return h
}

// Static describes the BSP implementation from its decomposition alone: per
// iteration the edge puts N, S, W, E to the neighbours present, the packing
// copy and the overlap window before the Sync; the unpacking copy and the late
// and shadow sweeps after it, at the head of the next superstep or, after the
// last, as the closing computes.
func Static(procs int, cfg Config, overlapFraction float64) (*bsp.Static, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if overlapFraction < 0 || overlapFraction > 1 {
		return nil, fmt.Errorf("stencil: overlap fraction %g outside [0,1]", overlapFraction)
	}
	d, err := Decompose(cfg.N, procs)
	if err != nil {
		return nil, err
	}
	return &bsp.Static{
		Supersteps: cfg.Iterations,
		Step: func(it, rank, _ int, ops sched.Ops) {
			h := haloOf(d, rank, overlapFraction)
			if it > 0 {
				ops.Compute(sched.Work{Kernel: &kernels.Copy, Cells: h.exchanged})
				ops.Compute(sched.Work{Kernel: &kernels.Stencil5, Cells: h.deep - h.early})
				ops.Compute(sched.Work{Kernel: &kernels.Stencil5, Cells: h.shadow})
			}
			if it == cfg.Iterations {
				return
			}
			for dir, nb := range h.neigh {
				if nb >= 0 {
					ops.Put(nb, h.edge[dir])
				}
			}
			ops.Compute(sched.Work{Kernel: &kernels.Copy, Cells: h.exchanged})
			ops.Compute(sched.Work{Kernel: &kernels.Stencil5, Cells: h.early})
		},
	}, nil
}

// BSPProgram returns the BSP body of the Jacobi kernel as a standalone
// bsp.Program, so callers that need run-level plumbing (contexts, seeds,
// fault plans, trace recorders) can execute it through their own session
// instead of the bare bsp.Run wrapper RunBSP uses. A synthetic body is
// Static's replay and builds no grid. checksums, when non-nil, must have
// procs entries and receives each rank's final grid checksum; a synthetic
// program looks the decomposition's initialChecksums up once, when built.
func BSPProgram(procs int, cfg Config, overlapFraction float64, checksums []float64) (bsp.Program, error) {
	sp, err := Static(procs, cfg, overlapFraction)
	if err != nil {
		return nil, err
	}
	if checksums != nil && len(checksums) != procs {
		return nil, fmt.Errorf("stencil: checksum slice has %d entries, want %d", len(checksums), procs)
	}
	d, _ := Decompose(cfg.N, procs) // Static accepted it
	if cfg.Synthetic {
		replay := sp.Program()
		if checksums == nil {
			return replay, nil
		}
		sums := initialChecksums(d)
		return func(ctx *bsp.Ctx) error {
			checksums[ctx.Pid()] = sums[ctx.Pid()]
			return replay(ctx)
		}, nil
	}
	return func(ctx *bsp.Ctx) error {
		rank := ctx.Pid()
		h := haloOf(d, rank, overlapFraction)
		grid := newLocalGrid(d, rank)
		ghosts := make([][]float64, numDirs) // one landing buffer per direction
		for dir := range ghosts {
			ghosts[dir] = make([]float64, h.edge[dir])
			ctx.PushReg(ghostNames[dir], ghosts[dir])
		}
		if err := ctx.Sync(); err != nil {
			return err
		}
		for it := 0; it < cfg.Iterations; it++ {
			// Commit the border exchange as early as possible: my edge in
			// direction dir becomes the neighbour's ghost on the opposite
			// side. Then pack, and compute the overlap window.
			for dir, nb := range h.neigh {
				if nb < 0 {
					continue
				}
				if err := ctx.Put(nb, ghostNames[opposite(dir)], 0, grid.edge(dir)); err != nil {
					return err
				}
			}
			ctx.ComputeKernel(kernels.Copy, h.exchanged, 1)
			ctx.ComputeKernel(kernels.Stencil5, h.early, 1)
			if err := ctx.Sync(); err != nil {
				return err
			}

			// Unpack, then the late and shadow sweeps. The cells are all swept
			// here: the early ones read no ghost, so where they are swept
			// changes no value.
			ctx.ComputeKernel(kernels.Copy, h.exchanged, 1)
			ctx.ComputeKernel(kernels.Stencil5, h.deep-h.early, 1)
			ctx.ComputeKernel(kernels.Stencil5, h.shadow, 1)
			for dir, nb := range h.neigh {
				if nb >= 0 {
					grid.setGhost(dir, ghosts[dir])
				}
			}
			grid.sweep(d, rank, cfg.C)
		}
		if checksums != nil {
			checksums[rank] = grid.checksum()
		}
		return nil
	}, nil
}

func summarize(impl string, procs int, cfg Config, wall float64, checksums []float64) *RunResult {
	sum := 0.0
	for _, c := range checksums {
		sum += c
	}
	return &RunResult{
		Implementation: impl,
		Procs:          procs,
		Iterations:     cfg.Iterations,
		WallTime:       wall,
		PerIteration:   wall / float64(cfg.Iterations),
		Checksum:       sum,
	}
}

// MeasureBSP runs the BSP implementation several times and reports the median
// per-iteration time, following the thesis' repetition methodology.
func MeasureBSP(m *platform.Machine, cfg Config, overlapFraction float64, reps int) (*RunResult, error) {
	if reps < 1 {
		reps = 1
	}
	var perIter []float64
	var last *RunResult
	for r := 0; r < reps; r++ {
		res, err := RunBSP(m.WithRunSeed(int64(1000+r)), cfg, overlapFraction)
		if err != nil {
			return nil, err
		}
		perIter = append(perIter, res.PerIteration)
		last = res
	}
	med, err := stats.Median(perIter)
	if err != nil {
		return nil, err
	}
	out := *last
	out.PerIteration = med
	out.WallTime = med * float64(cfg.Iterations)
	return &out, nil
}
