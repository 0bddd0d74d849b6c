package barrier

import (
	"fmt"

	"hbsp/internal/matrix"
	"hbsp/internal/sched"
)

// Semantics names the collective postcondition a schedule must establish.
// The stage-matrix representation is the same for every collective; only the
// final knowledge requirement of the Verify recursion differs.
type Semantics int

const (
	// SemBarrier requires every process to prove every arrival (Eq. 5.2).
	SemBarrier Semantics = iota
	// SemBroadcast requires every process to hold the root's message.
	SemBroadcast
	// SemReduce requires the root to hold every process' operand.
	SemReduce
	// SemAllReduce requires every process to hold every operand.
	SemAllReduce
	// SemAllGather requires every process to hold every block.
	SemAllGather
	// SemTotalExchange requires every personalized block to reach its
	// destination; under the flooding knowledge model this is the same
	// requirement as SemAllGather.
	SemTotalExchange
)

// String names the semantics.
func (s Semantics) String() string {
	switch s {
	case SemBarrier:
		return "barrier"
	case SemBroadcast:
		return "broadcast"
	case SemReduce:
		return "reduce"
	case SemAllReduce:
		return "allreduce"
	case SemAllGather:
		return "allgather"
	case SemTotalExchange:
		return "total-exchange"
	default:
		return fmt.Sprintf("Semantics(%d)", int(s))
	}
}

// binomialStages returns the ⌈log2 P⌉ binomial-tree broadcast stages rooted
// at root: in the stage with distance 2^s, every rank at relative position
// r < 2^s forwards to relative position r + 2^s.
func binomialStages(p, root int) []*matrix.Bool {
	var stages []*matrix.Bool
	for dist := 1; dist < p; dist *= 2 {
		st := matrix.NewBool(p, p)
		for r := 0; r < dist && r+dist < p; r++ {
			st.Set((root+r)%p, (root+r+dist)%p, true)
		}
		stages = append(stages, st)
	}
	if len(stages) == 0 {
		stages = []*matrix.Bool{matrix.NewBool(p, p)}
	}
	return stages
}

// stagePayload sizes every edge of one stage at bytes.
func stagePayload(st *matrix.Bool, p, bytes int) *matrix.Dense {
	pm := matrix.NewDense(p, p)
	for i := 0; i < p; i++ {
		for _, j := range st.RowTrue(i) {
			pm.Set(i, j, float64(bytes))
		}
	}
	return pm
}

// uniformPayload attaches the same per-signal payload size to every edge of
// every stage.
func uniformPayload(stages []*matrix.Bool, p int, bytes int) []*matrix.Dense {
	out := make([]*matrix.Dense, len(stages))
	for s, st := range stages {
		out[s] = stagePayload(st, p, bytes)
	}
	return out
}

// Broadcast returns the binomial-tree broadcast schedule: the root's message
// of msgBytes fans out over ⌈log2 P⌉ stages, every signal carrying the full
// message.
func Broadcast(p, root, msgBytes int) (*Pattern, error) {
	if p < 1 || root < 0 || root >= p {
		return nil, fmt.Errorf("%w: broadcast with p=%d root=%d", ErrInvalidPattern, p, root)
	}
	if msgBytes < 0 {
		msgBytes = 0
	}
	stages := binomialStages(p, root)
	return &Pattern{
		Name:      "broadcast",
		Procs:     p,
		Stages:    stages,
		Payload:   uniformPayload(stages, p, msgBytes),
		Semantics: SemBroadcast,
		Root:      root,
	}, nil
}

// Reduce returns the binomial-tree reduction schedule: the mirror image of
// Broadcast, with the stages transposed and reversed so every operand of
// msgBytes (partial reductions stay the same size) flows towards the root.
func Reduce(p, root, msgBytes int) (*Pattern, error) {
	if p < 1 || root < 0 || root >= p {
		return nil, fmt.Errorf("%w: reduce with p=%d root=%d", ErrInvalidPattern, p, root)
	}
	if msgBytes < 0 {
		msgBytes = 0
	}
	bcast := binomialStages(p, root)
	stages := make([]*matrix.Bool, 0, len(bcast))
	for s := len(bcast) - 1; s >= 0; s-- {
		stages = append(stages, bcast[s].Transpose())
	}
	return &Pattern{
		Name:      "reduce",
		Procs:     p,
		Stages:    stages,
		Payload:   uniformPayload(stages, p, msgBytes),
		Semantics: SemReduce,
		Root:      root,
	}, nil
}

// AllReduce returns the circulant (dissemination-structured) allreduce
// schedule: in stage s every process sends its running partial result of
// msgBytes to the process 2^s positions ahead. For powers of two this is the
// classic butterfly; for other process counts the circulant structure still
// delivers every operand everywhere, which is the property Verify checks (the
// cost model prices messages, not reduction algebra).
func AllReduce(p, msgBytes int) (*Pattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: allreduce with p=%d", ErrInvalidPattern, p)
	}
	if msgBytes < 0 {
		msgBytes = 0
	}
	diss, err := Dissemination(p)
	if err != nil {
		return nil, err
	}
	return &Pattern{
		Name:      "allreduce",
		Procs:     p,
		Stages:    diss.Stages,
		Payload:   uniformPayload(diss.Stages, p, msgBytes),
		Semantics: SemAllReduce,
		Sym:       diss.Sym,
	}, nil
}

// AllGather returns the dissemination (Bruck-style) allgather schedule: every
// process contributes a block of blockBytes, and in stage s each process
// forwards all blocks gathered so far to the process 2^s positions ahead, so
// the payload doubles until everyone holds all P blocks.
func AllGather(p, blockBytes int) (*Pattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: allgather with p=%d", ErrInvalidPattern, p)
	}
	if blockBytes < 0 {
		blockBytes = 0
	}
	diss, err := Dissemination(p)
	if err != nil {
		return nil, err
	}
	// Entering the stage with offset 2^s every rank holds 2^s blocks:
	// StreamAllGather's closed form, and what KnowledgeSized computes.
	payload := make([]*matrix.Dense, len(diss.Stages))
	for s, st := range diss.Stages {
		payload[s] = stagePayload(st, p, blockBytes<<s)
	}
	return &Pattern{
		Name:      "allgather",
		Procs:     p,
		Stages:    diss.Stages,
		Payload:   payload,
		Semantics: SemAllGather,
		Sym:       diss.Sym,
	}, nil
}

// TotalExchange returns the linear-shift total exchange (all-to-all
// personalized communication): in stage k every process sends the block of
// blockBytes destined for the process k+1 positions ahead, so each pair
// communicates directly and the schedule needs P−1 uniform stages.
func TotalExchange(p, blockBytes int) (*Pattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: total exchange with p=%d", ErrInvalidPattern, p)
	}
	if blockBytes < 0 {
		blockBytes = 0
	}
	var stages []*matrix.Bool
	for k := 1; k < p; k++ {
		st := matrix.NewBool(p, p)
		for i := 0; i < p; i++ {
			st.Set(i, (i+k)%p, true)
		}
		stages = append(stages, st)
	}
	if len(stages) == 0 {
		stages = []*matrix.Bool{matrix.NewBool(p, p)}
	}
	return &Pattern{
		Name:      "total-exchange",
		Procs:     p,
		Stages:    stages,
		Payload:   uniformPayload(stages, p, blockBytes),
		Semantics: SemTotalExchange,
		Sym:       sched.SymCirculant,
	}, nil
}

// AllGatherRing returns the ring allgather schedule: P−1 stages in which
// every process forwards one block of blockBytes to its successor, so block
// i travels the whole ring. Fewer bytes per stage than the dissemination
// allgather (always one block) at the cost of P−1 instead of ⌈log2 P⌉
// stages — the classic bandwidth/latency trade.
func AllGatherRing(p, blockBytes int) (*Pattern, error) {
	if p < 1 {
		return nil, fmt.Errorf("%w: ring allgather with p=%d", ErrInvalidPattern, p)
	}
	if blockBytes < 0 {
		blockBytes = 0
	}
	var stages []*matrix.Bool
	for k := 1; k < p; k++ {
		st := matrix.NewBool(p, p)
		for i := 0; i < p; i++ {
			st.Set(i, (i+1)%p, true)
		}
		stages = append(stages, st)
	}
	if len(stages) == 0 {
		stages = []*matrix.Bool{matrix.NewBool(p, p)}
	}
	return &Pattern{
		Name:      "allgather-ring",
		Procs:     p,
		Stages:    stages,
		Payload:   uniformPayload(stages, p, blockBytes),
		Semantics: SemAllGather,
		Sym:       sched.SymCirculant,
	}, nil
}

// Collectives returns one verified schedule per collective at the given
// process count and block size, keyed by name. Rooted collectives use root 0.
func Collectives(p, blockBytes int) (map[string]*Pattern, error) {
	out := map[string]*Pattern{}
	for _, build := range []func() (*Pattern, error){
		func() (*Pattern, error) { return Broadcast(p, 0, blockBytes) },
		func() (*Pattern, error) { return Reduce(p, 0, blockBytes) },
		func() (*Pattern, error) { return AllReduce(p, blockBytes) },
		func() (*Pattern, error) { return AllGather(p, blockBytes) },
		func() (*Pattern, error) { return TotalExchange(p, blockBytes) },
	} {
		pat, err := build()
		if err != nil {
			return nil, err
		}
		if err := pat.Verify(); err != nil {
			return nil, err
		}
		out[pat.Name] = pat
	}
	return out, nil
}
