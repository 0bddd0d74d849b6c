package server

import "sync"

// flightGroup coalesces concurrent evaluations of the same canonical point
// key: the first caller computes, every concurrent duplicate blocks on the
// leader's result and shares it. Results are the rendered entries the cache
// holds, so shared answers are byte-identical by construction. This is a
// minimal singleflight (no external dependency); unlike the x/sync version it
// never forgets a key early — the leader removes it when done, so a failed
// evaluation is retried by the next request rather than cached.
type flightGroup struct {
	mu     sync.Mutex
	flight map[string]*flightCall
}

type flightCall struct {
	done chan struct{}
	val  *rendered
	err  error
}

func newFlightGroup() *flightGroup {
	return &flightGroup{flight: make(map[string]*flightCall)}
}

// Do runs fn once per key among concurrent callers. The boolean reports
// whether this caller shared another caller's evaluation.
func (g *flightGroup) Do(key string, fn func() (*rendered, error)) (val *rendered, shared bool, err error) {
	g.mu.Lock()
	if c, ok := g.flight[key]; ok {
		g.mu.Unlock()
		<-c.done
		return c.val, true, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.flight[key] = c
	g.mu.Unlock()

	c.val, c.err = fn()

	g.mu.Lock()
	delete(g.flight, key)
	g.mu.Unlock()
	close(c.done)
	return c.val, false, c.err
}
