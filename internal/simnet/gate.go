package simnet

import (
	"fmt"
	"sync"
)

// Gate is the all-ranks rendezvous of the direct-evaluation fast path. When a
// run executes with EngineAuto, every schedule-expressible collective moment
// (a barrier/collective pattern execution, a superstep count exchange, a
// schedule flood) brings all ranks to the run's gate; the last rank to arrive
// becomes the leader and evaluates the whole collective sequentially with the
// discrete-event evaluator (internal/sched) while the other rank goroutines
// are parked, then everyone is released with the leader's verdict.
//
// The gate is integrated with the run's teardown: a cancelled run (wall-clock
// deadline or context cancellation) wakes every parked rank, which unwinds
// through the same cancelPanic path as a rank blocked in a receive, so a
// program that errors out on one rank while the others are waiting at the
// gate terminates exactly like one whose ranks are blocked in receives.
//
// Synchronization contract: a rank's last write to its own Proc happens
// before its Arrive (the gate mutex orders it before the leader runs), and
// the leader's writes happen before the release channel close that resumes
// the parked ranks — so the leader may freely read and write every arrived
// rank's Proc state and trace lane.
type Gate struct {
	mu      sync.Mutex
	n       int
	arrived int
	tickets []any
	round   *gateRound
	cancel  chan struct{}

	// Scratch is a leader-owned cache slot: layers that evaluate at the gate
	// park their reusable evaluator state here between rounds. Only the
	// leader callback may touch it (it runs under the gate mutex).
	Scratch any
}

// gateRound carries the release signal and leader verdict of one rendezvous.
type gateRound struct {
	release chan struct{}
	err     error
}

func newGate(n int) *Gate {
	return &Gate{
		n:       n,
		tickets: make([]any, n),
		round:   &gateRound{release: make(chan struct{})},
		cancel:  make(chan struct{}),
	}
}

// cancelGate wakes every rank parked at the gate; the run's cancel flag must
// already be set so later arrivals abort on entry.
func (g *Gate) cancelGate() {
	g.mu.Lock()
	select {
	case <-g.cancel:
	default:
		close(g.cancel)
	}
	g.mu.Unlock()
}

// Arrive parks the calling rank at the gate with its ticket (an operation
// descriptor the leader inspects). The last rank to arrive runs leader with
// all tickets, rank-indexed, and its error — typically nil — is returned to
// every rank of the round. Arrive unwinds with the run's cancellation panic
// if the run is torn down while parked.
func (g *Gate) Arrive(p *Proc, ticket any, leader func(tickets []any) error) error {
	g.mu.Lock()
	if p.w.cancelled.Load() {
		g.mu.Unlock()
		panic(cancelPanic{})
	}
	g.tickets[p.rank] = ticket
	g.arrived++
	if g.arrived == g.n {
		round := g.round
		err := g.runLeader(leader, round)
		g.arrived = 0
		clear(g.tickets)
		g.round = &gateRound{release: make(chan struct{})}
		round.err = err
		close(round.release)
		g.mu.Unlock()
		return err
	}
	round := g.round
	g.mu.Unlock()
	select {
	case <-round.release:
		return round.err
	case <-g.cancel:
		// A leader's error tears the run down as it releases the round, so
		// both may be ready: the verdict wins, or this rank's error is lost.
		select {
		case <-round.release:
			return round.err
		default:
		}
		panic(cancelPanic{})
	}
}

// runLeader invokes the leader callback, converting a leader panic into an
// error for the waiting ranks before re-raising it on the leader's own rank
// (so it surfaces as that rank's panic, exactly like a panic in a
// concurrently executed collective would).
func (g *Gate) runLeader(leader func([]any) error, round *gateRound) (err error) {
	panicked := true
	defer func() {
		if panicked {
			if r := recover(); r != nil {
				round.err = fmt.Errorf("simnet: direct-evaluation leader panicked: %v", r)
				close(round.release)
				g.arrived = 0
				clear(g.tickets)
				g.round = &gateRound{release: make(chan struct{})}
				g.mu.Unlock()
				panic(r)
			}
		}
	}()
	err = leader(g.tickets)
	panicked = false
	return err
}
