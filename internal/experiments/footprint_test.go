package experiments

import (
	"context"
	"runtime"
	"testing"

	"hbsp/internal/bsp"
	"hbsp/internal/platform"
)

// TestSyncExchangeFootprint bounds what a run of SyncExchangeProgram
// allocates at P = 2,048 to 4.5× what it allocates at P = 512, each from a
// fresh arena (the pools emptied by two collections) on a machine built
// beforehand. The program's registrations are one slot a process; a P-slot
// area on every process makes the ratio ≈8.
func TestSyncExchangeFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's shadow allocations are counted too")
	}
	alloc := func(p int) uint64 {
		m, err := platform.XeonClusterMachine(p)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err = bsp.RunContext(context.Background(), m, bsp.RunConfig{}, SyncExchangeProgram)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	small, big := alloc(512), alloc(2048)
	ratio := float64(big) / float64(small)
	t.Logf("SyncExchangeProgram allocated %.1f MB at P=512, %.1f MB at P=2048 (%.2fx)", float64(small)/1e6, float64(big)/1e6, ratio)
	if ratio > 4.5 {
		t.Errorf("SyncExchangeProgram at P=2048 allocated %.2fx what it allocated at P=512, want at most 4.5x", ratio)
	}
}
