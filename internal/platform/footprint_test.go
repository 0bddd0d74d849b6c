package platform

import (
	"runtime"
	"testing"
)

// TestFlatClusterMachineFootprint bounds what FlatClusterMachine allocates at
// P = 2^18: the placement's 12-byte seat per rank plus at most 4 KiB for the
// profile and the machine (≈1.6 KB today). A
// placement that keeps each rank's core index (16-byte seats) or sizes a
// counter per node fails here.
//
// TotalAlloc counts every goroutine's allocations, so the builds run on one
// P, as testing.AllocsPerRun runs its function, and the least of a few builds
// is taken: a runtime or test-framework allocation that lands inside one
// build does not land inside all of them.
func TestFlatClusterMachineFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are counted too")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const p = 1 << 18
	least := ^uint64(0)
	for range 3 {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m, err := FlatClusterMachine(p)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		runtime.KeepAlive(m)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	const fixed = 4 << 10
	t.Logf("FlatClusterMachine(%d) allocated %d B, %.3f B per rank", p, least, float64(least)/p)
	if least > 12*p+fixed {
		t.Errorf("FlatClusterMachine(%d) allocated %d B, want at most 12 B per rank plus %d", p, least, fixed)
	}
}
