package sched

import (
	"errors"
	"fmt"
)

// CirculantSchedule is the O(1)-per-stage view of a circulant schedule: the
// collapsed evaluator reads stages through it without materializing any
// per-rank adjacency, which is what keeps a P=1M evaluation at O(stages)
// work and O(P) memory (the rank states themselves).
type CirculantSchedule interface {
	Schedule
	// CirculantStage returns stage k's uniform offset (every rank i signals
	// (i+offset) mod P; offset 0 mod P means an empty stage) and the uniform
	// payload size in bytes of every edge.
	CirculantStage(k int) (offset, sizeBytes int)
}

// Circulant is a streaming circulant schedule: stage k prescribes the single
// uniform edge i→(i+offsets[k]) mod P for every rank i, with the uniform
// payload sizes[k]. It is the shape of the dissemination, linear-shift
// total-exchange and ring collectives, and it carries the SymCirculant hint
// by construction. A Circulant is immutable after construction — O(stages)
// state, shareable by any number of concurrent evaluations: the evaluator
// derives each rank's peers from CirculantStage (StageView) and never
// materializes an adjacency.
type Circulant struct {
	p       int
	offsets []int // normalized to [0, p); 0 = empty stage
	sizes   []int // nil = pure signals
}

// NewCirculant returns the circulant schedule over p ranks with one stage
// per offset. sizes gives the uniform per-edge payload of each stage (nil
// for pure signals; otherwise it must have one entry per offset). Offsets
// are taken mod p; an offset of 0 mod p yields an empty stage.
func NewCirculant(p int, offsets, sizes []int) (*Circulant, error) {
	if p < 1 {
		return nil, fmt.Errorf("sched: circulant schedule with p=%d", p)
	}
	if sizes != nil && len(sizes) != len(offsets) {
		return nil, errors.New("sched: circulant schedule needs one size per offset")
	}
	c := &Circulant{p: p, offsets: make([]int, len(offsets))}
	for k, off := range offsets {
		c.offsets[k] = ((off % p) + p) % p
	}
	if sizes != nil {
		c.sizes = make([]int, len(sizes))
		for k, sz := range sizes {
			if sz < 0 {
				sz = 0
			}
			c.sizes[k] = sz
		}
	}
	return c, nil
}

// NumProcs returns the number of participating ranks.
func (c *Circulant) NumProcs() int { return c.p }

// NumStages returns the number of stages.
func (c *Circulant) NumStages() int { return len(c.offsets) }

// Symmetry declares the circulant hint.
func (c *Circulant) Symmetry() Symmetry { return SymCirculant }

// CirculantStage returns stage k's uniform offset and payload size.
func (c *Circulant) CirculantStage(k int) (offset, sizeBytes int) {
	offset = c.offsets[k]
	if c.sizes != nil {
		sizeBytes = c.sizes[k]
	}
	return offset, sizeBytes
}

// StageAt materializes stage k as a fresh adjacency, for generic Schedule
// consumers; the evaluator's walkers read CirculantStage through a StageView
// instead.
func (c *Circulant) StageAt(k int) Stage {
	off, size := c.CirculantStage(k)
	st := Stage{Out: make([][]int, c.p), In: make([][]int, c.p)}
	if off == 0 {
		return st
	}
	peers := make([]int, 2*c.p)
	var sizeRow []int
	if c.sizes != nil {
		st.OutBytes = make([][]int, c.p)
		sizeRow = []int{size}
	}
	for i := 0; i < c.p; i++ {
		peers[2*i], peers[2*i+1] = (i+off)%c.p, (i-off+c.p)%c.p
		st.Out[i], st.In[i] = peers[2*i:2*i+1:2*i+1], peers[2*i+1:2*i+2:2*i+2]
		if sizeRow != nil {
			st.OutBytes[i] = sizeRow
		}
	}
	return st
}

// RankSchedule is the optional O(1)-per-rank view of a streamed schedule in
// which a rank has at most one edge per side per stage (the binomial trees of
// internal/barrier), for StageView.RankEdges: without it every rank goroutine
// of a concurrent-engine walk would build StageAt's O(P) adjacency for itself.
type RankSchedule interface {
	Schedule
	// RankEdges returns the rank r signals in stage k and the rank signalling
	// r (−1 for none), and the payload size of r's out-edge.
	RankEdges(k, r int) (dst, src, sizeBytes int)
}

// StageView reads one stage of a schedule edge by edge, the schedule value
// only ever being read: generic schedules through StageAt (once per Load),
// circulant ones by deriving each rank's single out- and in-peer (r±off) mod P
// on the fly. Every walker reads schedules through it: the evaluator's stage
// loops, the partition refinement and the knowledge recursion (Load, then
// Outs / Ins / OutSize rank after rank), and the concurrent engine's walker
// (RankEdges; one view per rank goroutine, by value). One-element slices
// returned for a streamed stage alias the view's buffers and are valid until
// the next call of the same method.
type StageView struct {
	s    Schedule
	cs   CirculantSchedule // non-nil: stages are read through CirculantStage
	p    int
	st   Stage // generic stage
	off  int   // circulant stage offset, 0 = empty
	size int
	dst  [1]int
	src  [1]int
	sz   [1]int
}

// ViewOf returns a view of the schedule, pointed at no stage yet.
func ViewOf(s Schedule) StageView {
	cs, _ := s.(CirculantSchedule)
	return StageView{s: s, cs: cs, p: s.NumProcs()}
}

// Load points the view at stage sg.
func (v *StageView) Load(sg int) {
	if v.cs != nil {
		off, size := v.cs.CirculantStage(sg)
		v.off, v.size = ((off%v.p)+v.p)%v.p, size
		return
	}
	v.st = v.s.StageAt(sg)
}

// Outs returns the ranks r signals, in edge order.
func (v *StageView) Outs(r int) []int {
	if v.cs == nil {
		return v.st.Out[r]
	}
	if v.off == 0 {
		return nil
	}
	if v.dst[0] = r + v.off; v.dst[0] >= v.p {
		v.dst[0] -= v.p
	}
	return v.dst[:]
}

// Ins returns the ranks signalling r, in the order their sends are scanned.
func (v *StageView) Ins(r int) []int {
	if v.cs == nil {
		return v.st.In[r]
	}
	if v.off == 0 {
		return nil
	}
	if v.src[0] = r - v.off; v.src[0] < 0 {
		v.src[0] += v.p
	}
	return v.src[:]
}

// OutSize returns the payload size of r's k-th out-edge.
func (v *StageView) OutSize(r, k int) int {
	if v.cs != nil {
		return v.size
	}
	if v.st.OutBytes == nil {
		return 0
	}
	return v.st.OutBytes[r][k]
}

// RankEdges reads one rank's edges in stage sg, for a walker that follows a
// single rank: the ranks signalling r, the ranks it signals, and the payload
// size of each out-edge (nil: pure signals). A RankSchedule is asked for them;
// anything else loads the stage.
func (v *StageView) RankEdges(sg, r int) (ins, outs, outBytes []int) {
	if rs, ok := v.s.(RankSchedule); ok {
		if v.dst[0], v.src[0], v.sz[0] = rs.RankEdges(sg, r); v.src[0] >= 0 {
			ins = v.src[:]
		}
		if v.dst[0] >= 0 {
			outs, outBytes = v.dst[:], v.sz[:]
		}
		return ins, outs, outBytes
	}
	v.Load(sg)
	if v.sz[0] = v.size; v.cs != nil {
		return v.Ins(r), v.Outs(r), v.sz[:]
	}
	if v.st.OutBytes != nil {
		outBytes = v.st.OutBytes[r]
	}
	return v.st.In[r], v.st.Out[r], outBytes
}
