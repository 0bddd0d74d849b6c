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

// maxMemo bounds a run's memo (Proc.Memo).
const maxMemo = 64

// memoEntry is one memo value: the first rank to want it builds it, outside
// the memo's lock, and the others wait for that build.
type memoEntry struct {
	once sync.Once
	v    any
	err  error
}

// Memo returns the run's value for key, built by the first rank to ask for
// it: every rank asking for key is handed that one value, or build's error.
// Collectives keep their schedules here, so the ranks of one call execute
// one schedule value — a gate leader checks that they agree by identity. Each
// layer keys it with a type of its own, so keys of two layers never collide.
// The memo is bounded by dropping every key once a new one would make
// maxMemo+1. That is safe for a collective's schedule on the default
// engine: every rank has looked up call n before any rank is released from
// it to ask for n+1. (Under the concurrent engine ranks do run ahead, and
// there identity is not checked.) A run that asks for nothing allocates no
// memo.
func (p *Proc) Memo(key any, build func() (any, error)) (any, error) {
	w := p.w
	w.memoMu.Lock()
	e := w.memo[key]
	if e == nil {
		if w.memo == nil || len(w.memo) >= maxMemo {
			w.memo = map[any]*memoEntry{}
		}
		e = &memoEntry{}
		w.memo[key] = e
	}
	w.memoMu.Unlock()
	e.once.Do(func() { e.v, e.err = build() })
	return e.v, e.err
}
