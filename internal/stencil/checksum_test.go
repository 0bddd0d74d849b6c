package stencil

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"testing"

	"hbsp/internal/platform"
)

// gridChecksums is the oracle of initialChecksums: every rank's grid built
// and summed.
func gridChecksums(d Decomposition) []float64 {
	sums := make([]float64, d.Procs())
	for rank := range sums {
		sums[rank] = newLocalGrid(d, rank).checksum()
	}
	return sums
}

// TestSyntheticRunsMatchGrids holds the grid-free synthetic message-passing
// runs to the runs that build grids: over generated decompositions (uneven
// splits and blocks of a single row or cell among them), the table's
// checksums equal the built grids' bit for bit, the synthetic and the
// sweeping run report the same wall time, and a synthetic run's checksum is
// the rank-order sum of the grids'. The hybrid runs one rank per node, so it
// is tried where P fits on the nodes: its decomposition is the same key.
// Under the race detector the N = 1536 grids are left out: a rank sweeps its
// grid alone, and instrumented they cost seconds.
func TestSyntheticRunsMatchGrids(t *testing.T) {
	prof := platform.Xeon8x2x4()
	for _, n := range []int{3, 5, 64, 385, 1536} {
		if raceEnabled && n > 1000 {
			continue
		}
		for _, p := range []int{1, 2, 3, 6, 7, 16, 33, 64} {
			d, err := Decompose(n, p)
			if err != nil {
				continue // more processes along an axis than grid points
			}
			want := gridChecksums(d)
			got := initialChecksums(d)
			wantSum := 0.0
			for rank := range want {
				if math.Float64bits(got[rank]) != math.Float64bits(want[rank]) {
					t.Fatalf("N=%d P=%d rank %d: table %.17g, grid %.17g", n, p, rank, got[rank], want[rank])
				}
				wantSum += want[rank]
			}

			m, err := prof.Machine(p)
			if err != nil {
				t.Fatal(err)
			}
			runs := map[string]func(cfg Config) (*RunResult, error){
				"mpi":   func(cfg Config) (*RunResult, error) { return RunMPI(m, cfg) },
				"mpi+r": func(cfg Config) (*RunResult, error) { return RunMPIRestructured(m, cfg) },
			}
			if p <= prof.Topology.Nodes {
				runs["hybrid"] = func(cfg Config) (*RunResult, error) { return RunHybrid(prof, p, cfg, 0.9) }
			}
			for name, run := range runs {
				cfg := Config{N: n, Iterations: 1, C: 0.2}
				swept, err := run(cfg)
				if err != nil {
					t.Fatalf("N=%d P=%d %s: %v", n, p, name, err)
				}
				cfg.Synthetic = true
				syn, err := run(cfg)
				if err != nil {
					t.Fatalf("N=%d P=%d synthetic %s: %v", n, p, name, err)
				}
				if syn.WallTime != swept.WallTime {
					t.Errorf("N=%d P=%d %s: synthetic wall time %v, sweeping run %v", n, p, name, syn.WallTime, swept.WallTime)
				}
				if math.Float64bits(syn.Checksum) != math.Float64bits(wantSum) {
					t.Errorf("N=%d P=%d %s: synthetic checksum %.17g, grids %.17g", n, p, name, syn.Checksum, wantSum)
				}
			}
		}
	}
}

// TestSyntheticMPIAllocatesNoGrid bounds what a synthetic RunMPI allocates
// once its decomposition's checksums are in the table: no rank builds a grid
// (one grid per rank at N = 1536, P = 16 is ≈19 MB).
func TestSyntheticMPIAllocatesNoGrid(t *testing.T) {
	m, err := platform.Xeon8x2x4().Machine(16)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{N: 1536, Iterations: 4, C: 0.2, Synthetic: true}
	if _, err := RunMPI(m, cfg); err != nil { // warms the table
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := RunMPI(m, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("synthetic RunMPI, N=1536 P=16, table warm: %d KB", alloc>>10)
	if alloc > 1<<20 {
		t.Fatalf("synthetic RunMPI at N=1536 P=16 allocated %d KB, want at most 1024 KB", alloc>>10)
	}
}

// TestSharedStencilChecksums runs synthetic BSP and MPI runs at once on the
// same and on different decompositions while they fill a table far smaller
// than the package's, so that most decompositions find it full: every result
// equals the serial one, every stored entry equals the grids', and the table
// never charges more than its bound.
func TestSharedStencilChecksums(t *testing.T) {
	const limit = 200
	saved := initialChecksumTable
	initialChecksumTable = newChecksumTable(limit)
	defer func() { initialChecksumTable = saved }()

	prof := platform.Xeon8x2x4()
	type run struct {
		impl string
		n, p int
	}
	var runs []run
	for _, n := range []int{5, 48, 97} {
		for _, p := range []int{1, 3, 4, 16, 33, 64} {
			if _, err := Decompose(n, p); err == nil {
				runs = append(runs, run{"bsp", n, p}, run{"mpi", n, p})
			}
		}
	}
	do := func(r run) (*RunResult, error) {
		m, err := prof.Machine(r.p)
		if err != nil {
			return nil, err
		}
		cfg := Config{N: r.n, Iterations: 2, C: 0.2, Synthetic: true}
		if r.impl == "bsp" {
			return RunBSP(m, cfg, 0.5)
		}
		return RunMPI(m, cfg)
	}
	want := make([]*RunResult, len(runs))
	for i, r := range runs {
		d, _ := Decompose(r.n, r.p)
		sum := 0.0
		for _, c := range gridChecksums(d) {
			sum += c
		}
		res, err := do(r)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(res.Checksum) != math.Float64bits(sum) {
			t.Fatalf("%s N=%d P=%d: checksum %.17g, grids %.17g", r.impl, r.n, r.p, res.Checksum, sum)
		}
		want[i] = res
	}
	initialChecksumTable = newChecksumTable(limit) // cold again for the concurrent runs

	const copies = 3 // each run three times at once: the same decomposition from several goroutines
	var wg sync.WaitGroup
	errs := make(chan error, copies*len(runs))
	for c := 0; c < copies; c++ {
		for i, r := range runs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				res, err := do(r)
				switch {
				case err != nil:
					errs <- err
				case *res != *want[i]:
					errs <- fmt.Errorf("%s N=%d P=%d: concurrent %+v, serial %+v", r.impl, r.n, r.p, *res, *want[i])
				}
			}()
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	tab := initialChecksumTable
	charged := 0
	for d, e := range tab.byDecomp {
		charged += d.Procs() + checksumEntryCost
		for rank, c := range gridChecksums(d) {
			if math.Float64bits(e.sums[rank]) != math.Float64bits(c) {
				t.Fatalf("stored %+v rank %d: %.17g, grid %.17g", d, rank, e.sums[rank], c)
			}
		}
	}
	if charged != tab.stored || tab.stored > limit {
		t.Fatalf("table charges %d floats for entries of %d, bound %d", tab.stored, charged, limit)
	}
	if len(tab.byDecomp) == 0 || len(tab.byDecomp) == len(runs)/2 {
		t.Fatalf("table stores %d of %d decompositions: the bound was not reached or nothing was stored", len(tab.byDecomp), len(runs)/2)
	}
}
