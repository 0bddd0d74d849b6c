// Package memmodel models the memory-hierarchy dependence of sustainable
// computation rate. Chapter 4 of the thesis shows that a single flop/s figure
// cannot describe a processor: the rate of a kernel depends on its memory
// access pattern and on whether its footprint fits in each cache level
// (Figs. 4.5 and 4.6 show the slope break at the L1 boundary). The framework
// treats the resulting nonlinearity as piecewise linear; this package
// provides the piecewise (roofline-style) rate model the simulated platforms
// use, and which the modeling framework approximates with per-interval
// linear cost entries.
package memmodel

import (
	"errors"
	"fmt"
	"math"
)

// Level is one level of the memory hierarchy.
type Level struct {
	// Name identifies the level ("L1", "L2", "DRAM", ...).
	Name string
	// CapacityBytes is the level's capacity. Use math.Inf(1) (or a very
	// large value) for main memory.
	CapacityBytes float64
	// BandwidthBytesPerSec is the sustainable streaming bandwidth for data
	// resident in this level.
	BandwidthBytesPerSec float64
}

// Hierarchy is an ordered list of levels, smallest and fastest first. The
// last level is assumed to hold any footprint.
type Hierarchy struct {
	Levels []Level
}

// Validate checks that the hierarchy is non-empty, capacities increase and
// bandwidths are positive.
func (h Hierarchy) Validate() error {
	if len(h.Levels) == 0 {
		return errors.New("memmodel: hierarchy needs at least one level")
	}
	prevCap := 0.0
	for i, l := range h.Levels {
		if l.BandwidthBytesPerSec <= 0 {
			return fmt.Errorf("memmodel: level %q has non-positive bandwidth", l.Name)
		}
		if l.CapacityBytes <= prevCap && !math.IsInf(l.CapacityBytes, 1) {
			return fmt.Errorf("memmodel: level %d (%q) capacity %g does not exceed previous %g",
				i, l.Name, l.CapacityBytes, prevCap)
		}
		prevCap = l.CapacityBytes
	}
	return nil
}

// Bandwidth returns the sustainable bandwidth for a working set of the given
// footprint: the bandwidth of the smallest level that holds it, or of the
// last level if nothing does.
func (h Hierarchy) Bandwidth(footprintBytes float64) float64 {
	for _, l := range h.Levels {
		if footprintBytes <= l.CapacityBytes {
			return l.BandwidthBytesPerSec
		}
	}
	return h.Levels[len(h.Levels)-1].BandwidthBytesPerSec
}

// Core couples a floating-point peak with a memory hierarchy; it is the
// processing-element description the platform profiles use.
type Core struct {
	// Name identifies the core design ("Xeon E5420", ...).
	Name string
	// ClockGHz is the core clock in GHz.
	ClockGHz float64
	// FlopsPerCycle is the peak number of floating-point operations retired
	// per cycle.
	FlopsPerCycle float64
	// Memory is the cache/memory hierarchy feeding the core.
	Memory Hierarchy
}

// PeakFlops returns the peak floating-point rate in flop/s.
func (c Core) PeakFlops() float64 { return c.ClockGHz * 1e9 * c.FlopsPerCycle }

// Rate returns the sustainable rate, in flop/s, of a computation with the
// given arithmetic intensity (flops per byte of memory traffic) and working
// set footprint. This is the classic roofline form
//
//	rate = min(peak, intensity × bandwidth(footprint))
//
// which reproduces the in-cache/out-of-cache behaviour the thesis measures.
func (c Core) Rate(intensityFlopsPerByte, footprintBytes float64) float64 {
	if intensityFlopsPerByte <= 0 {
		return c.PeakFlops()
	}
	bw := c.Memory.Bandwidth(footprintBytes)
	r := intensityFlopsPerByte * bw
	if peak := c.PeakFlops(); r > peak {
		return peak
	}
	return r
}
