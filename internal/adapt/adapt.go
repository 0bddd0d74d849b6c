// Package adapt implements Case Study I (Chapter 7): automatic, model-driven
// construction of synchronization algorithms. It clusters processes by the
// measured pairwise latency matrix (the thesis' subset-size selection, SSS),
// builds hierarchical hybrid barriers from per-cluster gather/release phases
// around an inter-representative barrier, and greedily selects the pattern
// combination with the lowest predicted cost according to the Chapter 5 cost
// model.
package adapt

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"hbsp/internal/matrix"
)

// Clustering is a partition of the process set into latency-homogeneous
// subsets, ordered by their lowest member rank.
type Clustering struct {
	// Groups lists the member ranks of each cluster in increasing order.
	Groups [][]int
	// Threshold is the latency below which two processes are considered to
	// belong to the same subset.
	Threshold float64
}

// ErrBadInput is returned for malformed clustering inputs.
var ErrBadInput = errors.New("adapt: invalid input")

// AutoThreshold picks a clustering threshold from a pairwise latency matrix
// by locating the largest multiplicative gap between consecutive distinct
// off-diagonal latency values: hierarchical platforms separate their local
// and remote link classes by an order of magnitude, and the threshold is
// placed inside that gap (the geometric mean of its endpoints).
func AutoThreshold(latency *matrix.Dense) (float64, error) {
	if latency == nil || latency.Rows() != latency.Cols() || latency.Rows() < 2 {
		return 0, fmt.Errorf("%w: need a square latency matrix of at least two processes", ErrBadInput)
	}
	p := latency.Rows()
	var values []float64
	for i := 0; i < p; i++ {
		for j := 0; j < p; j++ {
			if i != j && latency.At(i, j) > 0 {
				values = append(values, latency.At(i, j))
			}
		}
	}
	if len(values) == 0 {
		return 0, fmt.Errorf("%w: latency matrix has no positive off-diagonal entries", ErrBadInput)
	}
	sort.Float64s(values)
	bestRatio := 1.0
	threshold := values[len(values)-1] * 2 // default: everything in one cluster
	for i := 1; i < len(values); i++ {
		if values[i-1] <= 0 {
			continue
		}
		ratio := values[i] / values[i-1]
		if ratio > bestRatio {
			bestRatio = ratio
			threshold = math.Sqrt(values[i-1] * values[i])
		}
	}
	if bestRatio < 2 {
		// No clear hierarchy: treat the platform as flat.
		threshold = values[len(values)-1] * 2
	}
	return threshold, nil
}

// ClusterByLatency partitions the processes so that two processes share a
// cluster whenever their pairwise latency (in either direction) is below the
// threshold, taking the transitive closure (union-find).
func ClusterByLatency(latency *matrix.Dense, threshold float64) (*Clustering, error) {
	if latency == nil || latency.Rows() != latency.Cols() || latency.Rows() < 1 {
		return nil, fmt.Errorf("%w: need a square latency matrix", ErrBadInput)
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("%w: threshold must be positive", ErrBadInput)
	}
	p := latency.Rows()
	parent := make([]int, p)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if latency.At(i, j) < threshold || latency.At(j, i) < threshold {
				union(i, j)
			}
		}
	}
	groupsByRoot := map[int][]int{}
	for i := 0; i < p; i++ {
		r := find(i)
		groupsByRoot[r] = append(groupsByRoot[r], i)
	}
	var roots []int
	for r := range groupsByRoot {
		roots = append(roots, r)
	}
	sort.Ints(roots)
	cl := &Clustering{Threshold: threshold}
	for _, r := range roots {
		members := groupsByRoot[r]
		sort.Ints(members)
		cl.Groups = append(cl.Groups, members)
	}
	return cl, nil
}

// ClusterAuto combines AutoThreshold and ClusterByLatency.
func ClusterAuto(latency *matrix.Dense) (*Clustering, error) {
	th, err := AutoThreshold(latency)
	if err != nil {
		return nil, err
	}
	return ClusterByLatency(latency, th)
}

// Procs returns the total number of processes covered by the clustering.
func (cl *Clustering) Procs() int {
	n := 0
	for _, g := range cl.Groups {
		n += len(g)
	}
	return n
}

// Sizes returns the cluster sizes in group order; this is the quantity
// reported by Tables 7.1 and 7.2.
func (cl *Clustering) Sizes() []int {
	out := make([]int, len(cl.Groups))
	for i, g := range cl.Groups {
		out[i] = len(g)
	}
	return out
}

// Validate checks that the clustering is a partition of 0..P-1.
func (cl *Clustering) Validate() error {
	seen := map[int]bool{}
	for _, g := range cl.Groups {
		if len(g) == 0 {
			return fmt.Errorf("%w: empty cluster", ErrBadInput)
		}
		for _, r := range g {
			if r < 0 || seen[r] {
				return fmt.Errorf("%w: rank %d repeated or negative", ErrBadInput, r)
			}
			seen[r] = true
		}
	}
	p := cl.Procs()
	for r := 0; r < p; r++ {
		if !seen[r] {
			return fmt.Errorf("%w: rank %d missing from clustering", ErrBadInput, r)
		}
	}
	return nil
}

// String summarizes the clustering in the style of the thesis' tables.
func (cl *Clustering) String() string {
	return fmt.Sprintf("%d processes in %d subsets of sizes %v (threshold %.3g s)",
		cl.Procs(), len(cl.Groups), cl.Sizes(), cl.Threshold)
}
