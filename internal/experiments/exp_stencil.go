package experiments

import (
	"fmt"

	"hbsp/internal/platform"
	"hbsp/internal/stencil"
)

// StencilConfigRow is one row of Table 8.1: the experimental configurations
// of the Chapter 8 study.
type StencilConfigRow struct {
	Label          string
	Implementation string
	GridN          int
	Iterations     int
	MaxProcs       int
}

// Table8_1 lists the experimental configurations used by the Chapter 8
// experiments under the supplied options.
func Table8_1(opts Options) []StencilConfigRow {
	opts = opts.normalize()
	var rows []StencilConfigRow
	for _, impl := range []string{"bsp", "bsp (no overlap window)", "mpi", "mpi+r", "hybrid"} {
		rows = append(rows,
			StencilConfigRow{Label: "large", Implementation: impl, GridN: opts.StencilLargeN, Iterations: opts.StencilIterations, MaxProcs: opts.MaxProcsXeon},
			StencilConfigRow{Label: "small", Implementation: impl, GridN: opts.StencilSmallN, Iterations: opts.StencilIterations, MaxProcs: opts.MaxProcsXeon},
		)
	}
	return rows
}

// Table8_1Table renders Table 8.1.
func Table8_1Table(rows []StencilConfigRow) *Table {
	t := &Table{Title: "Table 8.1: experimental configurations", Columns: []string{"problem", "implementation", "N", "iterations", "max P"}}
	for _, r := range rows {
		t.AddRow(r.Label, r.Implementation, fmt.Sprintf("%d", r.GridN), fmt.Sprintf("%d", r.Iterations), fmt.Sprintf("%d", r.MaxProcs))
	}
	return t
}

// WallTimeRow is one row of Table 8.2: MPI and MPI+R wall times.
type WallTimeRow struct {
	Procs   int
	MPI     float64
	MPIR    float64
	Speedup float64
}

// stencilProcs is the process counts of Table 8.2 and the B series: 4, 16
// and MaxProcsXeon, ascending and once each, none past MaxProcsXeon or the
// platform's cores.
func stencilProcs(prof *platform.Profile, opts Options) []int {
	var sweep []int
	for _, p := range []int{4, 16, opts.MaxProcsXeon} {
		if p <= opts.MaxProcsXeon && p <= prof.Topology.TotalCores() && (len(sweep) == 0 || p > sweep[len(sweep)-1]) {
			sweep = append(sweep, p)
		}
	}
	return sweep
}

// Table8_2 reproduces Table 8.2: wall times of the MPI and restructured MPI
// implementations on the large problem.
func Table8_2(prof *platform.Profile, opts Options) ([]WallTimeRow, error) {
	opts = opts.normalize()
	cfg := stencil.Config{N: opts.StencilLargeN, Iterations: opts.StencilIterations, C: 0.2, Synthetic: opts.Synthetic}
	return ParallelSeries(stencilProcs(prof, opts), func(p int) ([]WallTimeRow, error) {
		m, err := prof.Machine(p)
		if err != nil {
			return nil, err
		}
		plain, err := stencil.RunMPI(m, cfg)
		if err != nil {
			return nil, err
		}
		restructured, err := stencil.RunMPIRestructured(m, cfg)
		if err != nil {
			return nil, err
		}
		row := WallTimeRow{Procs: p, MPI: plain.WallTime, MPIR: restructured.WallTime}
		if row.MPIR > 0 {
			row.Speedup = row.MPI / row.MPIR
		}
		return []WallTimeRow{row}, nil
	})
}

// ScalingPoint is one point of the A-series figures (Figs. 8.4–8.7): the
// per-iteration wall time of one implementation at one process count.
type ScalingPoint struct {
	Implementation string
	Procs          int
	PerIteration   float64
	Checksum       float64
}

// Fig8_4Series reproduces the strong-scaling comparison of all
// implementations (A1); restricting the implementations slice reproduces the
// A2–A4 subsets.
func Fig8_4Series(prof *platform.Profile, gridN int, implementations []string, opts Options) ([]ScalingPoint, error) {
	opts = opts.normalize()
	cfg := stencil.Config{N: gridN, Iterations: opts.StencilIterations, C: 0.2, Synthetic: opts.Synthetic}
	if len(implementations) == 0 {
		implementations = []string{"bsp", "bsp-serial", "mpi", "mpi+r", "hybrid"}
	}
	var sweep []int
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64} {
		if p > opts.MaxProcsXeon || p > prof.Topology.TotalCores() {
			break
		}
		sweep = append(sweep, p)
	}
	return ParallelSeries(sweep, func(p int) ([]ScalingPoint, error) {
		var out []ScalingPoint
		for _, impl := range implementations {
			var (
				res *stencil.RunResult
				err error
			)
			switch impl {
			case "bsp":
				m, merr := prof.Machine(p)
				if merr != nil {
					return nil, merr
				}
				res, err = stencil.RunBSP(m, cfg, 1)
			case "bsp-serial":
				// The BSP implementation with an empty overlap window: all
				// computation after the synchronization.
				m, merr := prof.Machine(p)
				if merr != nil {
					return nil, merr
				}
				res, err = stencil.RunBSP(m, cfg, 0)
			case "mpi":
				m, merr := prof.Machine(p)
				if merr != nil {
					return nil, merr
				}
				res, err = stencil.RunMPI(m, cfg)
			case "mpi+r":
				m, merr := prof.Machine(p)
				if merr != nil {
					return nil, merr
				}
				res, err = stencil.RunMPIRestructured(m, cfg)
			case "hybrid":
				nodes := p / prof.Topology.CoresPerNode()
				if nodes < 1 {
					continue
				}
				res, err = stencil.RunHybrid(prof, nodes, cfg, 0.9)
			default:
				return nil, fmt.Errorf("experiments: unknown implementation %q", impl)
			}
			if err != nil {
				return nil, err
			}
			out = append(out, ScalingPoint{Implementation: impl, Procs: p, PerIteration: res.PerIteration, Checksum: res.Checksum})
		}
		return out, nil
	})
}

// PredictionPoint is one point of the B-series figures (Figs. 8.10–8.15):
// predicted against measured per-iteration time for one model variant.
type PredictionPoint struct {
	Variant   string
	Problem   string
	Procs     int
	Predicted float64
	Measured  float64
	RelError  float64
}

// Fig8_10Series reproduces the B-series: for the large and small problems and
// a sweep of process counts, the measured BSP iteration time is compared with
// three prediction variants — the full overlap-aware model (B1/B2), the model
// without overlap (B3/B4), and the model without the payload-extended
// synchronization term (B5/B6).
func Fig8_10Series(prof *platform.Profile, opts Options) ([]PredictionPoint, error) {
	opts = opts.normalize()
	variants := []string{"overlap", "no-overlap", "no-sync"}
	type bPoint struct {
		label string
		n     int
		p     int
	}
	var sweep []bPoint
	for _, prob := range []struct {
		label string
		n     int
	}{{"large", opts.StencilLargeN}, {"small", opts.StencilSmallN}} {
		for _, p := range stencilProcs(prof, opts) {
			sweep = append(sweep, bPoint{label: prob.label, n: prob.n, p: p})
		}
	}
	return ParallelSeries(sweep, func(pt bPoint) ([]PredictionPoint, error) {
		label, n, p := pt.label, pt.n, pt.p
		cfg := stencil.Config{N: n, Iterations: opts.StencilIterations, C: 0.2, Synthetic: opts.Synthetic}
		m, err := prof.Machine(p)
		if err != nil {
			return nil, err
		}
		params, err := stencil.GroundTruthParams(prof, p)
		if err != nil {
			return nil, err
		}
		measured, err := stencil.MeasureBSP(m, cfg, 1, opts.Reps)
		if err != nil {
			return nil, err
		}
		var out []PredictionPoint
		for _, variant := range variants {
			setup, err := stencil.BuildModel(prof, params, p, cfg, 1)
			if err != nil {
				return nil, err
			}
			switch variant {
			case "no-overlap":
				setup.Superstep.MaskableComm = 0
				setup.Superstep.MaskableComp = 0
			case "no-sync":
				setup.Superstep.SyncCost = 0
			}
			pred, err := setup.Superstep.Predict()
			if err != nil {
				return nil, err
			}
			row := PredictionPoint{Variant: variant, Problem: label, Procs: p, Predicted: pred.Total, Measured: measured.PerIteration}
			if row.Measured > 0 {
				row.RelError = (row.Predicted - row.Measured) / row.Measured
			}
			out = append(out, row)
		}
		return out, nil
	})
}

// OverlapSweepPoint is one point of Fig. 8.18 (C1): predicted and measured
// iteration time as a function of the overlap-window fraction.
type OverlapSweepPoint struct {
	Fraction  float64
	Predicted float64
	Measured  float64
}

// Fig8_18Series reproduces Fig. 8.18: the model-driven adaptation sweep over
// the fraction of ghost-independent work placed in the overlap window.
func Fig8_18Series(prof *platform.Profile, procs int, opts Options) ([]OverlapSweepPoint, error) {
	opts = opts.normalize()
	cfg := stencil.Config{N: opts.StencilLargeN, Iterations: opts.StencilIterations, C: 0.2, Synthetic: opts.Synthetic}
	params, err := stencil.GroundTruthParams(prof, procs)
	if err != nil {
		return nil, err
	}
	fractions := []float64{0, 0.25, 0.5, 0.75, 1}
	predicted, err := stencil.PredictOverlapSweep(prof, params, procs, cfg, fractions)
	if err != nil {
		return nil, err
	}
	m, err := prof.Machine(procs)
	if err != nil {
		return nil, err
	}
	return RunPoints(len(fractions), func(i int) (OverlapSweepPoint, error) {
		meas, err := stencil.MeasureBSP(m, cfg, fractions[i], opts.Reps)
		if err != nil {
			return OverlapSweepPoint{}, err
		}
		return OverlapSweepPoint{Fraction: fractions[i], Predicted: predicted[i].Predicted, Measured: meas.PerIteration}, nil
	})
}
