package simnet

import "sync"

// Board is the data plane of one collective call: a slot per rank, which that
// rank writes its contribution into once, and one value derived from the call
// (Shared; a schedule's reach set, say) that the first rank to ask computes
// for all. Slots are plain memory: a rank reads another's slot only once
// something orders the read after the write — the gate's rendezvous on the
// direct engine, or on the concurrent engine the chain of mailbox hand-offs
// by which the writer's contribution reached the reader.
type Board struct {
	slots  []any
	takers int // ranks that have taken the board; guarded by world.boardMu
	once   sync.Once
	shared any
}

// Board returns the board of the calling rank's next collective call; the
// k-th call of every rank shares one. Ranks need not be in the same call at
// once — a broadcast root may run any number of calls ahead of its slowest
// reader — so the run keeps a board per call number in flight, and the last
// of the P ranks to take one drops it from the registry.
func (p *Proc) Board() *Board {
	w, seq := p.w, p.calls
	p.calls++
	w.boardMu.Lock()
	defer w.boardMu.Unlock()
	b := w.boards[seq]
	if b == nil {
		b = &Board{slots: make([]any, len(w.procs))}
		w.boards[seq] = b
	}
	if b.takers++; b.takers == len(w.procs) {
		delete(w.boards, seq)
	}
	return b
}

// Set writes rank's slot; a rank writes its own only.
func (b *Board) Set(rank int, v any) { b.slots[rank] = v }

// Get reads rank's slot (see Board on when another rank's may be read).
func (b *Board) Get(rank int) any { return b.slots[rank] }

// Shared returns the call's derived value, computed by the first caller.
func (b *Board) Shared(derive func() any) any {
	b.once.Do(func() { b.shared = derive() })
	return b.shared
}
