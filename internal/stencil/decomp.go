// Package stencil implements Case Study II (Chapter 8): a 5-point Laplacian
// (explicit heat-equation) stencil solved on a 2-D domain decomposition, in
// three variants — a BSP implementation with eagerly committed ghost
// exchanges (overlap-capable), an MPI-style implementation with a blocking
// two-stage border exchange, and a hybrid implementation with one
// communicating rank per node and ideal intra-node threading. The package
// also contains the model setup that predicts iteration times (Figs. 8.8/8.9)
// and the overlap-parameter optimization of Section 8.6.
package stencil

import (
	"errors"
	"fmt"
	"math"
	"sync"
)

// Decomposition is a 2-D block decomposition of an N×N grid over a Px×Py
// process grid.
type Decomposition struct {
	// N is the global grid dimension (the domain is N×N).
	N int
	// Px and Py are the process-grid dimensions; Px*Py processes in total.
	Px, Py int
}

// Decompose chooses the most nearly square process grid for p processes and
// an n×n domain.
func Decompose(n, p int) (Decomposition, error) {
	if n < 3 {
		return Decomposition{}, fmt.Errorf("stencil: grid dimension %d too small", n)
	}
	if p < 1 {
		return Decomposition{}, fmt.Errorf("stencil: need at least one process, got %d", p)
	}
	bestPx := 1
	for px := 1; px*px <= p; px++ {
		if p%px == 0 {
			bestPx = px
		}
	}
	d := Decomposition{N: n, Px: bestPx, Py: p / bestPx}
	if d.Px > d.Py {
		d.Px, d.Py = d.Py, d.Px
	}
	if d.Py > n || d.Px > n {
		return Decomposition{}, fmt.Errorf("stencil: cannot give every one of %d processes at least one row of a %d-point axis", p, n)
	}
	return d, nil
}

// Procs returns the number of processes in the decomposition.
func (d Decomposition) Procs() int { return d.Px * d.Py }

// Coords returns the (x, y) position of a rank in the process grid, with x
// varying fastest.
func (d Decomposition) Coords(rank int) (int, int) {
	return rank % d.Px, rank / d.Px
}

// RankAt returns the rank at process-grid position (x, y), or -1 if the
// position lies outside the grid.
func (d Decomposition) RankAt(x, y int) int {
	if x < 0 || x >= d.Px || y < 0 || y >= d.Py {
		return -1
	}
	return y*d.Px + x
}

// blockRange splits length n into parts chunks and returns the half-open
// range of chunk idx.
func blockRange(n, parts, idx int) (int, int) {
	base := n / parts
	rem := n % parts
	lo := idx*base + min(idx, rem)
	size := base
	if idx < rem {
		size++
	}
	return lo, lo + size
}

// LocalSize returns the interior rows and columns owned by a rank.
func (d Decomposition) LocalSize(rank int) (rows, cols int) {
	x, y := d.Coords(rank)
	r0, r1 := blockRange(d.N, d.Py, y)
	c0, c1 := blockRange(d.N, d.Px, x)
	return r1 - r0, c1 - c0
}

// GlobalOrigin returns the global (row, col) of the first interior cell owned
// by a rank.
func (d Decomposition) GlobalOrigin(rank int) (row, col int) {
	x, y := d.Coords(rank)
	r0, _ := blockRange(d.N, d.Py, y)
	c0, _ := blockRange(d.N, d.Px, x)
	return r0, c0
}

// Neighbor directions.
const (
	North = iota
	South
	West
	East
	numDirs
)

// Neighbors returns the neighbouring rank in each direction (-1 at the domain
// boundary), indexed by North/South/West/East.
func (d Decomposition) Neighbors(rank int) [4]int {
	x, y := d.Coords(rank)
	return [4]int{
		North: d.RankAt(x, y-1),
		South: d.RankAt(x, y+1),
		West:  d.RankAt(x-1, y),
		East:  d.RankAt(x+1, y),
	}
}

// Validate checks a decomposition for consistency.
func (d Decomposition) Validate() error {
	if d.N < 3 || d.Px < 1 || d.Py < 1 {
		return fmt.Errorf("stencil: invalid decomposition %+v", d)
	}
	if d.Px > d.N || d.Py > d.N {
		return errors.New("stencil: more processes along an axis than grid points")
	}
	return nil
}

// Config describes one stencil experiment.
type Config struct {
	// N is the global grid dimension.
	N int
	// Iterations is the number of Jacobi sweeps.
	Iterations int
	// C is the diffusion coefficient of the explicit update (stability
	// requires C <= 0.25).
	C float64
	// Synthetic prices the run without its floating-point work: no
	// implementation builds a grid or touches a cell, virtual time and
	// message sizes are unaffected, and the checksum is the initial
	// condition's. Large benchmark sweeps use it to keep host time low.
	Synthetic bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N < 3 {
		return fmt.Errorf("stencil: grid dimension %d too small", c.N)
	}
	if c.Iterations < 1 {
		return errors.New("stencil: need at least one iteration")
	}
	if c.C <= 0 || c.C > 0.25 {
		return fmt.Errorf("stencil: diffusion coefficient %g outside (0, 0.25]", c.C)
	}
	return nil
}

// initialValue is the deterministic initial condition used by every
// implementation so their results can be compared cell by cell: a smooth bump
// plus a hot plate on part of the northern boundary. It is the cell-wise
// reference; initialRows computes a block from the bump's two separable
// factors.
func initialValue(n, row, col int) float64 {
	if row == 0 && col >= n/4 && col < 3*n/4 {
		return 100
	}
	x := float64(col) / float64(n-1)
	y := float64(row) / float64(n-1)
	return 25 * math.Sin(math.Pi*x) * math.Sin(math.Pi*y)
}

// localGrid holds a rank's interior cells surrounded by a one-cell ghost
// frame, stored row-major with stride cols+2.
type localGrid struct {
	rows, cols int
	cur, next  []float64
}

// newLocalGrid returns rank's block of the initial condition in two equal
// buffers. Only a sweeping run builds one: a synthetic run touches no cell.
func newLocalGrid(d Decomposition, rank int) *localGrid {
	rows, cols := d.LocalSize(rank)
	g := &localGrid{rows: rows, cols: cols}
	g.cur = make([]float64, (rows+2)*(cols+2))
	initialRows(d, rank, func(r int, row []float64) { copy(g.cur[g.index(r, 0):], row) })
	g.next = make([]float64, len(g.cur))
	copy(g.next, g.cur)
	return g
}

// initialRows hands row rank's block of the initial condition one owned row
// at a time, top to bottom, in a buffer it reuses. The bump is separable,
// 25·sin(πx) by column times sin(πy) by row: one sine per column and one per
// row instead of two per cell, multiplied in initialValue's order so every
// cell keeps its bits.
func initialRows(d Decomposition, rank int, row func(r int, values []float64)) {
	rows, cols := d.LocalSize(rank)
	gr, gc := d.GlobalOrigin(rank)
	n := d.N
	byCol := make([]float64, cols)
	for c := range byCol {
		byCol[c] = 25 * math.Sin(math.Pi*(float64(gc+c)/float64(n-1)))
	}
	values := make([]float64, cols)
	for r := 0; r < rows; r++ {
		sinY := math.Sin(math.Pi * (float64(gr+r) / float64(n-1)))
		for c := range values {
			values[c] = byCol[c] * sinY
		}
		if gr+r == 0 {
			for c := range values {
				if col := gc + c; col >= n/4 && col < 3*n/4 {
					values[c] = 100
				}
			}
		}
		row(r, values)
	}
}

// initialChecksum is the checksum of rank's block of the initial condition,
// summed in localGrid.checksum's order — a synthetic run's, which no sweep
// changes — without building the grid.
func initialChecksum(d Decomposition, rank int) float64 {
	sum := 0.0
	initialRows(d, rank, func(_ int, values []float64) {
		for _, v := range values {
			sum += v
		}
	})
	return sum
}

// checksumTableCap bounds what the checksum table stores, counted in floats:
// an entry costs its P checksums plus checksumEntryCost for its key and
// bookkeeping. 1 Mi floats is 8 MiB; a decomposition that does not fit is
// computed and not stored.
const (
	checksumTableCap  = 1 << 20
	checksumEntryCost = 8
)

// checksumTable holds initialChecksums by decomposition: a synthetic run's
// checksums depend on its decomposition alone, so every run of the process
// reads one table.
type checksumTable struct {
	mu       sync.Mutex
	byDecomp map[Decomposition]*checksumEntry
	stored   int // floats charged to the entries, at most limit
	limit    int
}

type checksumEntry struct {
	once sync.Once
	sums []float64
}

var initialChecksumTable = newChecksumTable(checksumTableCap)

func newChecksumTable(limit int) *checksumTable {
	return &checksumTable{byDecomp: map[Decomposition]*checksumEntry{}, limit: limit}
}

// initialChecksums returns every rank's initialChecksum under d, computed
// once per decomposition while the table has room. The slice is shared:
// callers read it and never write it.
func initialChecksums(d Decomposition) []float64 { return initialChecksumTable.get(d) }

func (t *checksumTable) get(d Decomposition) []float64 {
	t.mu.Lock()
	e, ok := t.byDecomp[d]
	if !ok {
		e = &checksumEntry{}
		if cost := d.Procs() + checksumEntryCost; t.stored+cost <= t.limit {
			t.byDecomp[d] = e
			t.stored += cost
		}
	}
	t.mu.Unlock()
	e.once.Do(func() {
		e.sums = make([]float64, d.Procs())
		for rank := range e.sums {
			e.sums[rank] = initialChecksum(d, rank)
		}
	})
	return e.sums
}

// index maps interior coordinates (0-based, excluding ghosts) to the backing
// slice.
func (g *localGrid) index(r, c int) int { return (r+1)*(g.cols+2) + (c + 1) }

// edge extracts the owned cells adjacent to the given side, in row/column
// order, for sending to the neighbour in that direction.
func (g *localGrid) edge(dir int) []float64 {
	switch dir {
	case North:
		out := make([]float64, g.cols)
		for c := 0; c < g.cols; c++ {
			out[c] = g.cur[g.index(0, c)]
		}
		return out
	case South:
		out := make([]float64, g.cols)
		for c := 0; c < g.cols; c++ {
			out[c] = g.cur[g.index(g.rows-1, c)]
		}
		return out
	case West:
		out := make([]float64, g.rows)
		for r := 0; r < g.rows; r++ {
			out[r] = g.cur[g.index(r, 0)]
		}
		return out
	case East:
		out := make([]float64, g.rows)
		for r := 0; r < g.rows; r++ {
			out[r] = g.cur[g.index(r, g.cols-1)]
		}
		return out
	default:
		panic(fmt.Sprintf("stencil: invalid direction %d", dir))
	}
}

// setGhost installs values received from the neighbour in the given direction
// into the ghost frame.
func (g *localGrid) setGhost(dir int, values []float64) {
	switch dir {
	case North:
		for c := 0; c < g.cols && c < len(values); c++ {
			g.cur[(0)*(g.cols+2)+(c+1)] = values[c]
		}
	case South:
		for c := 0; c < g.cols && c < len(values); c++ {
			g.cur[(g.rows+1)*(g.cols+2)+(c+1)] = values[c]
		}
	case West:
		for r := 0; r < g.rows && r < len(values); r++ {
			g.cur[(r+1)*(g.cols+2)+0] = values[r]
		}
	case East:
		for r := 0; r < g.rows && r < len(values); r++ {
			g.cur[(r+1)*(g.cols+2)+(g.cols+1)] = values[r]
		}
	default:
		panic(fmt.Sprintf("stencil: invalid direction %d", dir))
	}
}

// sweep applies the Jacobi update with coefficient coeff to every owned
// cell, writing into next, and swaps the buffers. Cells on the global domain
// boundary keep their (Dirichlet) values.
func (g *localGrid) sweep(d Decomposition, rank int, coeff float64) {
	gr, gc := d.GlobalOrigin(rank)
	stride := g.cols + 2
	for r := 0; r < g.rows; r++ {
		globalRow := gr + r
		for c := 0; c < g.cols; c++ {
			idx := g.index(r, c)
			globalCol := gc + c
			if globalRow == 0 || globalRow == d.N-1 || globalCol == 0 || globalCol == d.N-1 {
				g.next[idx] = g.cur[idx]
				continue
			}
			g.next[idx] = g.cur[idx] + coeff*(g.cur[idx-stride]+g.cur[idx+stride]+g.cur[idx-1]+g.cur[idx+1]-4*g.cur[idx])
		}
	}
	g.cur, g.next = g.next, g.cur
}

// checksum returns the sum of the owned cells; identical decompositions and
// iteration counts must give identical checksums across implementations.
func (g *localGrid) checksum() float64 {
	sum := 0.0
	for r := 0; r < g.rows; r++ {
		for c := 0; c < g.cols; c++ {
			sum += g.cur[g.index(r, c)]
		}
	}
	return sum
}
