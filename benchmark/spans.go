package main

import (
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer's public functions, recorded by the
// harness from outside: nothing inside the program under test is
// instrumented. Spans of one operation share Op; Parent is the span that
// caused this one (0 = none).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Layer   string `json:"layer"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNs - s.StartNs) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the untraced run pays one pointer test per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(parent, op int, layer, name string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Layer: layer, Name: name, StartNs: now})
	id := len(t.spans)
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// do times fn as one span.
func (t *tracer) do(parent, op int, layer, name string, fn func()) {
	id := t.begin(parent, op, layer, name)
	fn()
	t.end(id)
}

// durations returns the durations in milliseconds of every span with the
// layer and name, in recording order.
func (t *tracer) durations(layer, name string) []float64 {
	if t == nil {
		return nil
	}
	var out []float64
	for _, s := range t.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(s.EndNs-s.StartNs)/1e6)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover (overlapping children are
// counted once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
		covered, hi := int64(0), s.StartNs
		for _, k := range kids {
			lo, end := k.StartNs, k.EndNs
			if lo < hi {
				lo = hi
			}
			if end > s.EndNs {
				end = s.EndNs
			}
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		self[s.ID] = time.Duration(s.EndNs - s.StartNs - covered)
	}
	return self
}
