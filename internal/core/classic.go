// Package core implements the modeling framework that is the thesis' primary
// contribution: the original scalar BSP cost model it starts from
// (Section 3.1), the heterogeneous replacement in which requirements and
// costs are matrices combined with element-wise products (Sections 3.3–3.5),
// and the superstep predictor built on the fundamental equation of modeling
//
//	T_total = T_compute + T_communicate − T_overlap
//
// specialized to bulk-synchronous supersteps (Eq. 1.4).
package core

import (
	"errors"
	"fmt"
)

// ClassicParams are the four scalar parameters of the original BSP
// performance model in Bisseling's notation (Section 3.1): the level of
// parallelism p, the computation rate r in flop/s, the per-word communication
// cost g in flop-equivalents, and the synchronization cost l in
// flop-equivalents. These are the values bspbench reports (Table 3.1).
type ClassicParams struct {
	// P is the number of processes.
	P int
	// R is the computation rate in flop per second.
	R float64
	// G is the communication throughput cost in flops per machine word.
	G float64
	// L is the synchronization cost in flops.
	L float64
}

// Validate checks the parameters for plausibility.
func (cp ClassicParams) Validate() error {
	if cp.P < 1 {
		return fmt.Errorf("core: classic params need P >= 1, got %d", cp.P)
	}
	if cp.R <= 0 {
		return errors.New("core: classic params need a positive computation rate")
	}
	if cp.G < 0 || cp.L < 0 {
		return errors.New("core: classic params need non-negative g and l")
	}
	return nil
}

// Seconds converts a flop-equivalent cost into seconds using the rate r.
func (cp ClassicParams) Seconds(flops float64) float64 { return flops / cp.R }

// InnerProductCost returns the classic BSP estimate, in seconds, of the
// bspinprod program of Section 3.1 (Eq. 3.7): two computation supersteps and
// one 1-relation communication superstep for an N-element inner product on P
// processes.
func (cp ClassicParams) InnerProductCost(n int) (float64, error) {
	if err := cp.Validate(); err != nil {
		return 0, err
	}
	if n < 0 {
		return 0, errors.New("core: negative problem size")
	}
	// Eq. 3.7: (N/p·2 + l + g + l + p) flops, converted to seconds by r.
	// The two l terms are the synchronizations ending the first computation
	// superstep and the 1-relation communication superstep.
	p := float64(cp.P)
	comp1 := float64(n) / p * 2 // local sums of products
	comm := 1 * cp.G            // scatter of one scalar: a 1-relation
	comp2 := p                  // accumulation of P partial sums
	total := comp1 + cp.L + comm + cp.L + comp2
	return total / cp.R, nil
}
