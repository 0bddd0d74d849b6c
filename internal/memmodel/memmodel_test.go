package memmodel

import (
	"math"
	"testing"
	"testing/quick"
)

func testHierarchy() Hierarchy {
	return Hierarchy{Levels: []Level{
		{Name: "L1", CapacityBytes: 64 * 1024, BandwidthBytesPerSec: 40e9},
		{Name: "L2", CapacityBytes: 1 * 1024 * 1024, BandwidthBytesPerSec: 20e9},
		{Name: "DRAM", CapacityBytes: math.Inf(1), BandwidthBytesPerSec: 5e9},
	}}
}

func TestHierarchyValidate(t *testing.T) {
	if err := testHierarchy().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := Hierarchy{Levels: []Level{{Name: "L1", CapacityBytes: 100, BandwidthBytesPerSec: 0}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("zero bandwidth should fail")
	}
	empty := Hierarchy{}
	if err := empty.Validate(); err == nil {
		t.Fatal("empty hierarchy should fail")
	}
	nonIncreasing := Hierarchy{Levels: []Level{
		{Name: "L1", CapacityBytes: 1024, BandwidthBytesPerSec: 1e9},
		{Name: "L2", CapacityBytes: 512, BandwidthBytesPerSec: 1e9},
	}}
	if err := nonIncreasing.Validate(); err == nil {
		t.Fatal("non-increasing capacities should fail")
	}
}

func TestBandwidthSelection(t *testing.T) {
	h := testHierarchy()
	if bw := h.Bandwidth(1024); bw != 40e9 {
		t.Fatalf("small footprint bandwidth %g", bw)
	}
	if bw := h.Bandwidth(512 * 1024); bw != 20e9 {
		t.Fatalf("mid footprint bandwidth %g", bw)
	}
	if bw := h.Bandwidth(100 * 1024 * 1024); bw != 5e9 {
		t.Fatalf("large footprint bandwidth %g", bw)
	}
}

func testCore() Core {
	return Core{Name: "test", ClockGHz: 2.5, FlopsPerCycle: 4, Memory: testHierarchy()}
}

func TestPeakFlops(t *testing.T) {
	if got := testCore().PeakFlops(); got != 10e9 {
		t.Fatalf("PeakFlops = %g", got)
	}
}

func TestRateRoofline(t *testing.T) {
	c := testCore()
	// Very high intensity: compute bound at peak.
	if got := c.Rate(1000, 1024); got != c.PeakFlops() {
		t.Fatalf("compute-bound rate = %g", got)
	}
	// Low intensity in cache: memory bound on L1 bandwidth.
	if got := c.Rate(0.1, 1024); math.Abs(got-0.1*40e9) > 1 {
		t.Fatalf("L1-bound rate = %g", got)
	}
	// Same intensity out of cache: slower.
	inCache := c.Rate(0.1, 1024)
	outCache := c.Rate(0.1, 1e9)
	if outCache >= inCache {
		t.Fatalf("out-of-cache rate %g should be below in-cache %g", outCache, inCache)
	}
	// Zero intensity degenerates to peak (no memory traffic).
	if got := c.Rate(0, 1024); got != c.PeakFlops() {
		t.Fatalf("zero-intensity rate = %g", got)
	}
}

// Property: rate never exceeds peak and never increases when the footprint
// grows (monotone non-increasing in footprint).
func TestRateMonotoneProperty(t *testing.T) {
	c := testCore()
	f := func(intensityRaw, fpRaw uint32) bool {
		intensity := float64(intensityRaw%1000)/100 + 0.01
		fp := float64(fpRaw % (16 * 1024 * 1024))
		r1 := c.Rate(intensity, fp)
		r2 := c.Rate(intensity, fp*2+1)
		return r1 <= c.PeakFlops()+1e-9 && r2 <= r1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
