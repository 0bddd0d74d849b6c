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
func TestFlatClusterMachineFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are counted too")
	}
	const p = 1 << 18
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := FlatClusterMachine(p)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(m)
	const fixed = 4 << 10
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("FlatClusterMachine(%d) allocated %d B, %.3f B per rank", p, bytes, float64(bytes)/p)
	if bytes > 12*p+fixed {
		t.Errorf("FlatClusterMachine(%d) allocated %d B, want at most 12 B per rank plus %d", p, bytes, fixed)
	}
}
