// Package experiments regenerates every table and figure of the thesis'
// evaluation chapters on the simulated platforms. Each exported function
// corresponds to one experiment of the thesis evaluation and
// returns the rows/series the original figure or table reports; report.go
// renders them as the sections cmd/experiments prints, and the repository's
// benchmark harnesses time them one by one.
package experiments

import (
	"fmt"
	"strings"
)

// Options scale the experiments: the full settings regenerate the complete
// sweeps, the quick settings are used by unit tests and the benchmark
// harness to keep run times moderate.
type Options struct {
	// Reps is the number of repetitions per measured point.
	Reps int
	// ProcStep is the increment between measured process counts.
	ProcStep int
	// MaxProcsXeon bounds the Xeon sweep (64 in the thesis).
	MaxProcsXeon int
	// MaxProcsOpteron bounds the Opteron sweep (144 in the thesis).
	MaxProcsOpteron int
	// StencilLargeN and StencilSmallN are the two problem sizes of the
	// Chapter 8 experiments.
	StencilLargeN int
	StencilSmallN int
	// StencilIterations is the number of Jacobi sweeps per measurement.
	StencilIterations int
	// Synthetic skips the stencil's floating-point work (model time only).
	Synthetic bool
	// CollapseProcs are the rank counts of the symmetry-collapse scaling
	// study (CollapseScalingSeries); each point is a direct RunSchedule
	// evaluation of the superstep count exchange on a flat homogeneous
	// cluster, so counts far beyond the concurrent sweeps are feasible.
	CollapseProcs []int
}

// Full returns the settings used to regenerate the complete evaluation.
func Full() Options {
	return Options{
		Reps:              16,
		ProcStep:          4,
		MaxProcsXeon:      64,
		MaxProcsOpteron:   144,
		StencilLargeN:     1536,
		StencilSmallN:     384,
		StencilIterations: 4,
		Synthetic:         true,
		CollapseProcs:     []int{4096, 65536, 262144, 1048576},
	}
}

// Quick returns reduced settings for tests and sanity runs.
func Quick() Options {
	return Options{
		Reps:              3,
		ProcStep:          16,
		MaxProcsXeon:      32,
		MaxProcsOpteron:   48,
		StencilLargeN:     384,
		StencilSmallN:     128,
		StencilIterations: 2,
		Synthetic:         true,
		CollapseProcs:     []int{256, 4096, 65536},
	}
}

// normalize fills unset fields from the Quick defaults.
func (o Options) normalize() Options {
	q := Quick()
	if o.Reps < 1 {
		o.Reps = q.Reps
	}
	if o.ProcStep < 1 {
		o.ProcStep = q.ProcStep
	}
	if o.MaxProcsXeon < 2 {
		o.MaxProcsXeon = q.MaxProcsXeon
	}
	if o.MaxProcsOpteron < 2 {
		o.MaxProcsOpteron = q.MaxProcsOpteron
	}
	if o.StencilLargeN < 16 {
		o.StencilLargeN = q.StencilLargeN
	}
	if o.StencilSmallN < 16 {
		o.StencilSmallN = q.StencilSmallN
	}
	if o.StencilIterations < 1 {
		o.StencilIterations = q.StencilIterations
	}
	if len(o.CollapseProcs) == 0 {
		o.CollapseProcs = q.CollapseProcs
	}
	return o
}

// procSweep returns the process counts 2, step, 2*step, ..., max (always
// including 2 and max).
func procSweep(step, max int) []int {
	var out []int
	if max < 2 {
		return []int{2}
	}
	out = append(out, 2)
	for p := step; p < max; p += step {
		if p > 2 {
			out = append(out, p)
		}
	}
	if out[len(out)-1] != max {
		out = append(out, max)
	}
	return out
}

// Table renders a simple aligned text table; the report uses it to print
// experiment results in the same row/series form the thesis reports.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[min(i, len(widths)-1)], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// fmtSeconds renders a duration in seconds with engineering precision.
func fmtSeconds(s float64) string { return fmt.Sprintf("%.3e", s) }

// fmtPercent renders a ratio as a percentage.
func fmtPercent(x float64) string { return fmt.Sprintf("%.1f%%", 100*x) }
