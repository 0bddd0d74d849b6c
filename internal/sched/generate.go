package sched

import "fmt"

// The generator shapes of the collectives, in streaming form: the circulant
// dissemination, ring and linear-shift schedules, and the binomial trees.
// internal/barrier's Stream* generators and mpi.Comm's built-in collectives
// both build their schedules here. Every shape follows the generators' p == 1
// convention: a single empty stage.

// generated is NewCirculant with the p == 1 convention.
func generated(p int, offsets, sizes []int) (*Circulant, error) {
	if p == 1 {
		return NewCirculant(1, []int{0}, []int{0})
	}
	return NewCirculant(p, offsets, sizes)
}

// Dissemination returns the dissemination shape over p ranks: stage s
// signals offset 2^s, for every 2^s < p, each edge carrying size(2^s) bytes
// (size nil: pure signals).
func Dissemination(p int, size func(offset int) int) (*Circulant, error) {
	var offs, sizes []int
	for dist := 1; dist < p; dist *= 2 {
		offs = append(offs, dist)
		if size != nil {
			sizes = append(sizes, size(dist))
		}
	}
	return generated(p, offs, sizes)
}

// Ring returns the ring shape over p ranks: p−1 stages, each forwarding
// blockBytes to the successor.
func Ring(p, blockBytes int) (*Circulant, error) { return linear(p, blockBytes, true) }

// Shift returns the linear-shift shape over p ranks: stage k signals offset
// k+1, for k < p−1, each edge carrying blockBytes.
func Shift(p, blockBytes int) (*Circulant, error) { return linear(p, blockBytes, false) }

// linear builds the p−1 stages of a ring (every offset 1) or of a linear
// shift (offsets 1, …, p−1), every edge carrying blockBytes.
func linear(p, blockBytes int, ring bool) (*Circulant, error) {
	offs := make([]int, 0, max(p-1, 0))
	sizes := make([]int, 0, max(p-1, 0))
	for k := 1; k < p; k++ {
		off := k
		if ring {
			off = 1
		}
		offs = append(offs, off)
		sizes = append(sizes, blockBytes)
	}
	return generated(p, offs, sizes)
}

// Binomial streams the binomial broadcast and reduce trees: stage s of the
// broadcast has the ≤2^s edges (root+r) → (root+r+2^s) mod p for r < 2^s;
// the reduce runs the transposed stages in reverse order. The value is O(1)
// and immutable: StageAt builds fresh O(P) edge lists per call, and a walker
// following one rank asks for that rank's edges (RankSchedule).
type Binomial struct {
	p, root, msgBytes int
	reduce            bool // transposed stages in reverse order
	nstages           int
}

// NewBinomial returns the binomial broadcast tree (reduce: the reduction
// tree) over p ranks rooted at root, every edge carrying msgBytes.
func NewBinomial(p, root, msgBytes int, reduce bool) (*Binomial, error) {
	if p < 1 || root < 0 || root >= p {
		return nil, fmt.Errorf("sched: binomial tree with p=%d root=%d", p, root)
	}
	nstages := 0
	for dist := 1; dist < p; dist *= 2 {
		nstages++
	}
	return &Binomial{p: p, root: root, msgBytes: max(msgBytes, 0), reduce: reduce, nstages: max(nstages, 1)}, nil
}

// NumProcs returns the number of participating ranks.
func (s *Binomial) NumProcs() int { return s.p }

// NumStages returns the number of stages.
func (s *Binomial) NumStages() int { return s.nstages }

// RankEdges returns rank r's single out- and in-peer in stage k (−1 for none):
// in the broadcast stage of distance 2^s the rank at relative position
// rel < 2^s feeds rel+2^s and the ranks at 2^s ≤ rel < 2^(s+1) are fed.
func (s *Binomial) RankEdges(k, r int) (dst, src, sizeBytes int) {
	if s.reduce {
		k = s.nstages - 1 - k
	}
	dist, rel := 1<<k, (r-s.root+s.p)%s.p
	child, parent := -1, -1
	if rel < dist && rel+dist < s.p {
		child = (r + dist) % s.p
	}
	if rel >= dist && rel < 2*dist {
		parent = (r - dist + s.p) % s.p
	}
	if s.reduce {
		return parent, child, s.msgBytes
	}
	return child, parent, s.msgBytes
}

// StageAt materializes stage k as a fresh adjacency.
func (s *Binomial) StageAt(k int) Stage {
	st := Stage{Out: make([][]int, s.p), In: make([][]int, s.p), OutBytes: make([][]int, s.p)}
	peers := make([]int, 2*s.p) // per rank: its single destination, its single source
	sizeRow := []int{s.msgBytes}
	for r := 0; r < s.p; r++ {
		if peers[2*r], peers[2*r+1], _ = s.RankEdges(k, r); peers[2*r] >= 0 {
			st.Out[r], st.OutBytes[r] = peers[2*r:2*r+1:2*r+1], sizeRow
		}
		if peers[2*r+1] >= 0 {
			st.In[r] = peers[2*r+1 : 2*r+2 : 2*r+2]
		}
	}
	return st
}
