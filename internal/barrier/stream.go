package barrier

import (
	"fmt"

	"hbsp/internal/sched"
)

// Streaming schedule generators: the one construction of every collective.
// The circulant ones return sched.Circulant values that describe a stage by
// its single (offset, size) pair — O(stages) state, immutable and shareable
// by concurrent evaluations. They carry the SymCirculant hint by
// construction, so on a homogeneous one-rank-per-node machine the direct
// evaluator collapses them to a single equivalence class and never touches a
// per-rank stage at all: the representation that carries P=1M runs. The
// Pattern generator of the same collective is this stream materialized once
// through StageAt (named), so the two cannot disagree.
//
// The binomial broadcast/reduce trees are not circulant; StreamBroadcast and
// StreamReduce build each stage's O(P) edge lists on request instead, or
// answer for one rank (sched.RankSchedule).

// streamOffsets returns the dissemination offsets 1, 2, 4, ... < p.
func streamOffsets(p int) []int {
	var offs []int
	for dist := 1; dist < p; dist *= 2 {
		offs = append(offs, dist)
	}
	return offs
}

// circulant wraps sched.NewCirculant (which takes negative sizes as 0) with
// every generator's p==1 convention: a single empty stage.
func circulant(p int, offsets, sizes []int) (*sched.Circulant, error) {
	if p == 1 {
		return sched.NewCirculant(1, []int{0}, []int{0})
	}
	return sched.NewCirculant(p, offsets, sizes)
}

// StreamTotalExchange returns the linear-shift total-exchange schedule
// (identical stage structure and payload sizes to TotalExchange) in
// streaming form.
func StreamTotalExchange(p, blockBytes int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: total exchange with p=%d", ErrInvalidPattern, p)
	}
	offs := make([]int, 0, p-1)
	sizes := make([]int, 0, p-1)
	for k := 1; k < p; k++ {
		offs = append(offs, k)
		sizes = append(sizes, blockBytes)
	}
	return circulant(p, offs, sizes)
}

// StreamDissemination returns the dissemination barrier (identical to
// Dissemination: stage s signals offset 2^s, no payload) in streaming form.
func StreamDissemination(p int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: dissemination barrier with p=%d", ErrInvalidPattern, p)
	}
	return circulant(p, streamOffsets(p), nil)
}

// StreamAllReduce returns the circulant allreduce (identical to AllReduce:
// dissemination stages, every signal carrying msgBytes) in streaming form.
func StreamAllReduce(p, msgBytes int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: allreduce with p=%d", ErrInvalidPattern, p)
	}
	offs := streamOffsets(p)
	sizes := make([]int, len(offs))
	for i := range sizes {
		sizes[i] = msgBytes
	}
	return circulant(p, offs, sizes)
}

// StreamAllGather returns the dissemination allgather (identical to
// AllGather: stage s forwards the min(2^s, P) blocks gathered so far) in
// streaming form.
func StreamAllGather(p, blockBytes int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: allgather with p=%d", ErrInvalidPattern, p)
	}
	offs := streamOffsets(p)
	sizes := make([]int, len(offs))
	for i, dist := range offs {
		known := dist // before the stage with offset 2^s, each rank holds min(2^s, p) blocks
		if known > p {
			known = p
		}
		sizes[i] = known * blockBytes
	}
	return circulant(p, offs, sizes)
}

// StreamAllGatherRing returns the ring allgather (identical to
// AllGatherRing: P−1 stages forwarding one block to the successor) in
// streaming form.
func StreamAllGatherRing(p, blockBytes int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: ring allgather with p=%d", ErrInvalidPattern, p)
	}
	offs := make([]int, 0, p-1)
	sizes := make([]int, 0, p-1)
	for k := 1; k < p; k++ {
		offs = append(offs, 1)
		sizes = append(sizes, blockBytes)
	}
	return circulant(p, offs, sizes)
}

// binomStream streams the binomial broadcast/reduce trees: stage s of the
// broadcast has the ≤2^s edges (root+r) → (root+r+2^s) mod p for r < 2^s;
// the reduce runs the transposed stages in reverse order. The value is O(1)
// and immutable: StageAt builds fresh O(P) edge lists per call, and a walker
// following one rank asks for that rank's edges (sched.RankSchedule).
type binomStream struct {
	p, root, msgBytes int
	reverse           bool // reduce: transposed stages in reverse order
	nstages           int
}

func newBinomStream(name string, p, root, msgBytes int, reverse bool) (sched.Schedule, error) {
	if p < 1 || root < 0 || root >= p {
		return nil, fmt.Errorf("%w: %s with p=%d root=%d", ErrInvalidPattern, name, p, root)
	}
	nstages := 0
	for dist := 1; dist < p; dist *= 2 {
		nstages++
	}
	if nstages == 0 {
		nstages = 1 // every generator's p==1 convention: a single empty stage
	}
	return &binomStream{p: p, root: root, msgBytes: max(msgBytes, 0), reverse: reverse, nstages: nstages}, nil
}

func (s *binomStream) NumProcs() int  { return s.p }
func (s *binomStream) NumStages() int { return s.nstages }

// RankEdges returns rank r's single out- and in-peer in stage k (−1 for none):
// in the broadcast stage of distance 2^s the rank at relative position
// rel < 2^s feeds rel+2^s and the ranks at 2^s ≤ rel < 2^(s+1) are fed.
func (s *binomStream) RankEdges(k, r int) (dst, src, sizeBytes int) {
	if s.reverse {
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
	if s.reverse {
		return parent, child, s.msgBytes
	}
	return child, parent, s.msgBytes
}

func (s *binomStream) StageAt(k int) sched.Stage {
	st := sched.Stage{Out: make([][]int, s.p), In: make([][]int, s.p), OutBytes: make([][]int, s.p)}
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

// StreamBroadcast returns the binomial-tree broadcast (identical to
// Broadcast: ⌈log2 P⌉ stages, every signal carrying msgBytes) in streaming
// form.
func StreamBroadcast(p, root, msgBytes int) (sched.Schedule, error) {
	return newBinomStream("broadcast", p, root, msgBytes, false)
}

// StreamReduce returns the binomial-tree reduction (identical to Reduce: the
// transposed broadcast stages in reverse order) in streaming form.
func StreamReduce(p, root, msgBytes int) (sched.Schedule, error) {
	return newBinomStream("reduce", p, root, msgBytes, true)
}
