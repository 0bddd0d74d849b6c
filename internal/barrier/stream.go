package barrier

import (
	"fmt"

	"hbsp/internal/sched"
)

// Streaming schedule generators: the one construction of every collective.
// Each checks its arguments and builds its shape in internal/sched. The
// circulant ones return sched.Circulant values that describe a stage by its
// single (offset, size) pair — O(stages) state, immutable and shareable by
// concurrent evaluations. They carry the SymCirculant hint by construction,
// so on a homogeneous one-rank-per-node machine the direct evaluator
// collapses them to a single equivalence class and never touches a per-rank
// stage at all: the representation that carries P=1M runs. The Pattern
// generator of the same collective is this stream materialized once through
// StageAt (named), so the two cannot disagree.
//
// The binomial broadcast/reduce trees are not circulant; sched.Binomial
// builds each stage's O(P) edge lists on request instead, or answers for one
// rank (sched.RankSchedule).

// StreamTotalExchange returns the linear-shift total-exchange schedule
// (identical stage structure and payload sizes to TotalExchange) in
// streaming form.
func StreamTotalExchange(p, blockBytes int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: total exchange with p=%d", ErrInvalidPattern, p)
	}
	return sched.Shift(p, blockBytes)
}

// StreamDissemination returns the dissemination barrier (identical to
// Dissemination: stage s signals offset 2^s, no payload) in streaming form.
func StreamDissemination(p int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: dissemination barrier with p=%d", ErrInvalidPattern, p)
	}
	return sched.Dissemination(p, nil)
}

// StreamAllReduce returns the circulant allreduce (identical to AllReduce:
// dissemination stages, every signal carrying msgBytes) in streaming form.
func StreamAllReduce(p, msgBytes int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: allreduce with p=%d", ErrInvalidPattern, p)
	}
	return sched.Dissemination(p, func(int) int { return msgBytes })
}

// StreamAllGather returns the dissemination allgather (identical to
// AllGather: stage s forwards the min(2^s, P) blocks gathered so far) in
// streaming form.
func StreamAllGather(p, blockBytes int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: allgather with p=%d", ErrInvalidPattern, p)
	}
	// Before the stage with offset 2^s, each rank holds min(2^s, p) blocks.
	return sched.Dissemination(p, func(dist int) int { return min(dist, p) * blockBytes })
}

// StreamAllGatherRing returns the ring allgather (identical to
// AllGatherRing: P−1 stages forwarding one block to the successor) in
// streaming form.
func StreamAllGatherRing(p, blockBytes int) (sched.Schedule, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: ring allgather with p=%d", ErrInvalidPattern, p)
	}
	return sched.Ring(p, blockBytes)
}

// StreamBroadcast returns the binomial-tree broadcast (identical to
// Broadcast: ⌈log2 P⌉ stages, every signal carrying msgBytes) in streaming
// form.
func StreamBroadcast(p, root, msgBytes int) (sched.Schedule, error) {
	if p < 1 || root < 0 || root >= p {
		return nil, fmt.Errorf("%w: broadcast with p=%d root=%d", ErrInvalidPattern, p, root)
	}
	return sched.NewBinomial(p, root, msgBytes, false)
}

// StreamReduce returns the binomial-tree reduction (identical to Reduce: the
// transposed broadcast stages in reverse order) in streaming form.
func StreamReduce(p, root, msgBytes int) (sched.Schedule, error) {
	if p < 1 || root < 0 || root >= p {
		return nil, fmt.Errorf("%w: reduce with p=%d root=%d", ErrInvalidPattern, p, root)
	}
	return sched.NewBinomial(p, root, msgBytes, true)
}
