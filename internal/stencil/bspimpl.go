package stencil

import (
	"errors"
	"fmt"

	"hbsp/internal/bsp"
	"hbsp/internal/kernels"
	"hbsp/internal/platform"
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
	// implementations (up to floating-point summation order).
	Checksum float64
}

var ghostNames = [numDirs]string{North: "ghostN", South: "ghostS", West: "ghostW", East: "ghostE"}

// opposite returns the direction opposite to dir.
func opposite(dir int) int {
	switch dir {
	case North:
		return South
	case South:
		return North
	case West:
		return East
	case East:
		return West
	}
	panic(fmt.Sprintf("stencil: invalid direction %d", dir))
}

// RunBSP executes the BSP implementation: ghost edges are committed with
// one-sided puts at the start of each iteration, a tunable fraction of the
// ghost-independent interior is computed before the synchronization (the
// overlap window), and the shadow regions are completed afterwards.
// overlapFraction = 1 is the implementation of Section 8.3.1; smaller values
// shrink the overlap window and are used by the Section 8.6 adaptation study.
func RunBSP(m *platform.Machine, cfg Config, overlapFraction float64) (*RunResult, error) {
	if m == nil {
		return nil, errors.New("stencil: nil machine")
	}
	checksums := make([]float64, m.Procs())
	body, err := BSPProgram(m.Procs(), cfg, overlapFraction, checksums)
	if err != nil {
		return nil, err
	}
	res, err := bsp.Run(m, body)
	if err != nil {
		return nil, err
	}
	return summarize("bsp", m.Procs(), cfg, res.MakeSpan, checksums), nil
}

// BSPProgram returns the BSP body of the Jacobi kernel as a standalone
// bsp.Program, so callers that need run-level plumbing (contexts, seeds,
// fault plans, trace recorders) can execute it through their own session
// instead of the bare bsp.Run wrapper RunBSP uses. checksums, when non-nil,
// must have procs entries and receives each rank's final grid checksum.
func BSPProgram(procs int, cfg Config, overlapFraction float64, checksums []float64) (bsp.Program, error) {
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
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if checksums != nil && len(checksums) != procs {
		return nil, fmt.Errorf("stencil: checksum slice has %d entries, want %d", len(checksums), procs)
	}

	return func(ctx *bsp.Ctx) error {
		rank := ctx.Pid()
		grid := newLocalGrid(d, rank, cfg.Synthetic)
		neigh := d.Neighbors(rank)

		// Register one contiguous ghost landing buffer per direction.
		ghosts := make([][]float64, numDirs)
		for dir := 0; dir < numDirs; dir++ {
			size := grid.cols
			if dir == West || dir == East {
				size = grid.rows
			}
			ghosts[dir] = make([]float64, size)
			ctx.PushReg(ghostNames[dir], ghosts[dir])
		}
		if err := ctx.Sync(); err != nil {
			return err
		}

		deep := grid.deepInteriorCells()
		shadow := grid.interiorCells() - deep
		early := int(float64(deep) * overlapFraction)
		late := deep - early

		for it := 0; it < cfg.Iterations; it++ {
			// Commit the border exchange as early as possible: my edge in
			// direction dir becomes the neighbour's ghost on the opposite
			// side.
			exchanged := 0
			for dir := 0; dir < numDirs; dir++ {
				nb := neigh[dir]
				if nb < 0 {
					continue
				}
				edge := grid.edge(dir)
				exchanged += len(edge)
				if err := ctx.Put(nb, ghostNames[opposite(dir)], 0, edge); err != nil {
					return err
				}
			}
			ctx.ComputeKernel(kernels.Copy, exchanged, 1) // packing cost

			// Overlap window: ghost-independent interior work.
			if early > 0 {
				grid.sweep(d, rank, cfg, 1, 1+earlyRows(grid, early), 1, grid.cols-1)
				ctx.ComputeKernel(kernels.Stencil5, early, 1)
			}

			if err := ctx.Sync(); err != nil {
				return err
			}

			// Install the received ghosts and finish the sweep.
			for dir := 0; dir < numDirs; dir++ {
				if neigh[dir] >= 0 {
					grid.setGhost(dir, ghosts[dir])
				}
			}
			ctx.ComputeKernel(kernels.Copy, exchanged, 1) // unpacking cost
			if late > 0 {
				grid.sweep(d, rank, cfg, 1+earlyRows(grid, early), grid.rows-1, 1, grid.cols-1)
				ctx.ComputeKernel(kernels.Stencil5, late, 1)
			}
			grid.sweepShadow(d, rank, cfg)
			ctx.ComputeKernel(kernels.Stencil5, shadow, 1)
			grid.swap()
		}
		if checksums != nil {
			checksums[rank] = grid.checksum()
		}
		return nil
	}, nil
}

// earlyRows converts a cell budget into a number of complete deep-interior
// rows (the sweep granularity of the overlap window).
func earlyRows(g *localGrid, earlyCells int) int {
	if g.cols <= 2 {
		return 0
	}
	rows := earlyCells / (g.cols - 2)
	if rows > g.rows-2 {
		rows = g.rows - 2
	}
	return rows
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
