package sched

import (
	"errors"
	"fmt"
)

// AsCirculant returns the schedule as a *Circulant, seeing through a wrapper
// (barrier.Pattern): how code outside this package asks a schedule's shape.
// The type is the only statement of the shape — an edge-list literal of the
// same stages is not a circulant here.
func AsCirculant(s Schedule) (*Circulant, bool) {
	c, ok := unwrap(s).(*Circulant)
	return c, ok
}

// ProcsOf returns the schedule's rank count, seeing through a wrapper; 0 for
// a nil schedule or a wrapper of none, which every rank-count check refuses.
func ProcsOf(s Schedule) int {
	if s = unwrap(s); s == nil {
		return 0
	}
	return s.NumProcs()
}

// unwrap returns the schedule whose type decides s's shape: s itself, or the
// schedule a wrapper's ScheduleView holds (barrier.Pattern), unwrapped again;
// nil for a wrapper of none. Every shape decision here reads it.
func unwrap(s Schedule) Schedule {
	for {
		w, ok := s.(interface{ ScheduleView() Schedule })
		if !ok {
			return s
		}
		s = w.ScheduleView()
	}
}

// Circulant is a streaming circulant schedule: stage k prescribes the single
// uniform edge i→(i+offsets[k]) mod P for every rank i, with the uniform
// payload sizes[k]. It is the shape of the dissemination, linear-shift
// total-exchange and ring collectives, and its type is what the symmetry
// collapse and the one-row reach set ask for (AsCirculant). A Circulant is
// immutable after construction — O(stages) state, shareable by any number of
// concurrent evaluations: the evaluator derives each rank's peers from
// CirculantStage (StageView) and never materializes an adjacency, which is
// what keeps a P=1M evaluation at O(stages) work.
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

// CirculantStage returns stage k's uniform offset, in [0, P) (every rank i
// signals (i+offset) mod P; 0 is an empty stage), and the uniform payload
// size in bytes of every edge.
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
	cs   *Circulant // non-nil: stages are read through CirculantStage
	p    int
	st   Stage // generic stage
	off  int   // circulant stage offset, 0 = empty
	size int
	dst  [1]int
	src  [1]int
	sz   [1]int
}

// ViewOf returns a view of the schedule, pointed at no stage yet; a wrapper
// is read through the schedule it wraps.
func ViewOf(s Schedule) StageView {
	s = unwrap(s)
	cs, _ := s.(*Circulant)
	return StageView{s: s, cs: cs, p: s.NumProcs()}
}

// Load points the view at stage sg.
func (v *StageView) Load(sg int) {
	if v.cs != nil {
		v.off, v.size = v.cs.CirculantStage(sg)
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
// size of each out-edge (nil: pure signals). A binomial tree is asked for
// them, so a rank goroutine of a concurrent-engine walk never builds
// StageAt's O(P) adjacency for itself; anything else loads the stage.
func (v *StageView) RankEdges(sg, r int) (ins, outs, outBytes []int) {
	if bt, ok := v.s.(*Binomial); ok {
		if v.dst[0], v.src[0], v.sz[0] = bt.RankEdges(sg, r); v.src[0] >= 0 {
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
