package barrier

import "fmt"

// Semantics names the collective postcondition a schedule must establish.
// The stage representation is the same for every collective; only the final
// knowledge requirement of the Verify recursion differs.
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

// The collectives below are their Stream* generators materialized once: the
// same stages and payload sizes as edge lists, named and tagged with the
// semantics Verify checks.

// Broadcast returns the binomial-tree broadcast schedule: the root's message
// of msgBytes fans out over ⌈log2 P⌉ stages, every signal carrying the full
// message.
func Broadcast(p, root, msgBytes int) (*Pattern, error) {
	return named("broadcast", SemBroadcast, root)(StreamBroadcast(p, root, msgBytes))
}

// Reduce returns the binomial-tree reduction schedule: the mirror image of
// Broadcast, with the stages transposed and reversed so every operand of
// msgBytes (partial reductions stay the same size) flows towards the root.
func Reduce(p, root, msgBytes int) (*Pattern, error) {
	return named("reduce", SemReduce, root)(StreamReduce(p, root, msgBytes))
}

// AllReduce returns the circulant (dissemination-structured) allreduce
// schedule: in stage s every process sends its running partial result of
// msgBytes to the process 2^s positions ahead. For powers of two this is the
// classic butterfly; for other process counts the circulant structure still
// delivers every operand everywhere, which is the property Verify checks (the
// cost model prices messages, not reduction algebra).
func AllReduce(p, msgBytes int) (*Pattern, error) {
	return named("allreduce", SemAllReduce, 0)(StreamAllReduce(p, msgBytes))
}

// AllGather returns the dissemination (Bruck-style) allgather schedule: every
// process contributes a block of blockBytes, and in stage s each process
// forwards all blocks gathered so far to the process 2^s positions ahead, so
// the payload doubles until everyone holds all P blocks.
func AllGather(p, blockBytes int) (*Pattern, error) {
	return named("allgather", SemAllGather, 0)(StreamAllGather(p, blockBytes))
}

// TotalExchange returns the linear-shift total exchange (all-to-all
// personalized communication): in stage k every process sends the block of
// blockBytes destined for the process k+1 positions ahead, so each pair
// communicates directly and the schedule needs P−1 uniform stages.
func TotalExchange(p, blockBytes int) (*Pattern, error) {
	return named("total-exchange", SemTotalExchange, 0)(StreamTotalExchange(p, blockBytes))
}

// AllGatherRing returns the ring allgather schedule: P−1 stages in which
// every process forwards one block of blockBytes to its successor, so block
// i travels the whole ring. Fewer bytes per stage than the dissemination
// allgather (always one block) at the cost of P−1 instead of ⌈log2 P⌉
// stages — the classic bandwidth/latency trade.
func AllGatherRing(p, blockBytes int) (*Pattern, error) {
	return named("allgather-ring", SemAllGather, 0)(StreamAllGatherRing(p, blockBytes))
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
