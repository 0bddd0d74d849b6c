package sched_test

import (
	"bytes"
	"context"
	"errors"
	"testing"
	"time"

	"hbsp/internal/platform"
	"hbsp/internal/sched"
	"hbsp/internal/simnet"
	"hbsp/internal/trace"
)

// ringProgram is a mixed op-stream: eager posts, acknowledged sends,
// receives waited out of post order, compute intervals and trace marks. It
// opens with an interval before any stage mark, which both engines must
// record outside every stage.
func ringProgram(p int) *simnet.Program {
	pr := simnet.NewProgram(p)
	for r := 0; r < p; r++ {
		b := pr.Rank(r)
		next, prev := (r+1)%p, (r+p-1)%p
		b.ComputeExact(2e-7)
		for k := 0; k < 4; k++ {
			b.Stage(k)
			rq := b.Irecv(prev, k)
			b.Post(next, k, 8)
			b.Wait(rq)
			b.Stage(-1)
		}
		b.Compute(1e-6 * float64(r+1))
		// Two in-flight acknowledged sends waited in reverse order, and two
		// receives waited in reverse post order (FIFO is wait-order).
		s1 := b.Isend(next, 100, 64)
		s2 := b.Isend(next, 100, 128)
		r2 := b.Irecv(prev, 100)
		r1 := b.Irecv(prev, 100)
		b.Wait(s2)
		b.Wait(s1)
		b.Wait(r2)
		b.Wait(r1)
		b.Superstep(0)
		b.ComputeExact(5e-7)
		// Zero-byte message and a self-send.
		zq := b.Irecv(prev, 200)
		b.Post(next, 200, 0)
		b.Wait(zq)
		sq := b.Irecv(r, 300)
		b.Post(r, 300, 16)
		b.Wait(sq)
	}
	return pr
}

// machines returns the cross-engine diff matrix: noisy and noiseless, odd
// and power-of-two rank counts.
func machines(t *testing.T, p int, seed int64, noisy bool) *platform.Machine {
	t.Helper()
	prof := platform.Xeon8x2x4()
	if !noisy {
		prof = platform.XeonCluster((p + 7) / 8)
	}
	m, err := prof.Machine(p)
	if err != nil {
		t.Fatal(err)
	}
	return m.WithRunSeed(seed)
}

func eventStream(t *testing.T, rec *trace.Recorder) string {
	t.Helper()
	tr, err := rec.Trace()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteEvents(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestProgramEnginesBitIdentical diffs the direct evaluator against the
// concurrent engine event-for-event: virtual times must be bit-identical and
// the recorded trace streams byte-identical, across odd and power-of-two P,
// acks on and off, noisy and noiseless machines.
func TestProgramEnginesBitIdentical(t *testing.T) {
	for _, p := range []int{1, 2, 5, 8, 13, 16} {
		for _, ack := range []bool{true, false} {
			for _, noisy := range []bool{true, false} {
				m := machines(t, p, 42, noisy)
				pr := ringProgram(p)

				recC := trace.NewRecorder()
				oC := simnet.DefaultOptions()
				oC.AckSends = ack
				oC.Engine = simnet.EngineConcurrent
				oC.Recorder = recC
				resC, err := simnet.RunProgram(context.Background(), m, pr, oC)
				if err != nil {
					t.Fatalf("p=%d ack=%v noisy=%v concurrent: %v", p, ack, noisy, err)
				}

				recD := trace.NewRecorder()
				oD := simnet.DefaultOptions()
				oD.AckSends = ack
				oD.Recorder = recD
				resD, err := sched.RunProgram(context.Background(), m, pr, oD)
				if err != nil {
					t.Fatalf("p=%d ack=%v noisy=%v direct: %v", p, ack, noisy, err)
				}

				if len(resC.Times) != len(resD.Times) {
					t.Fatalf("rank count mismatch: %d vs %d", len(resC.Times), len(resD.Times))
				}
				for r := range resC.Times {
					if resC.Times[r] != resD.Times[r] {
						t.Errorf("p=%d ack=%v noisy=%v rank %d: concurrent %v, direct %v",
							p, ack, noisy, r, resC.Times[r], resD.Times[r])
					}
				}
				if resC.MakeSpan != resD.MakeSpan {
					t.Errorf("p=%d ack=%v noisy=%v makespan: %v vs %v", p, ack, noisy, resC.MakeSpan, resD.MakeSpan)
				}
				if resC.Messages != resD.Messages || resC.Bytes != resD.Bytes {
					t.Errorf("p=%d traffic: %d/%d vs %d/%d", p, resC.Messages, resC.Bytes, resD.Messages, resD.Bytes)
				}
				if sc, sd := eventStream(t, recC), eventStream(t, recD); sc != sd {
					t.Errorf("p=%d ack=%v noisy=%v: traced event streams differ", p, ack, noisy)
				}
			}
		}
	}
}

// TestProgramDeadlockReturnsErrDeadline pins the evaluator's deadlock
// verdict: a receive no send ever produces returns ErrDeadline (immediately,
// where the concurrent engine would burn its wall-clock deadline first).
func TestProgramDeadlockReturnsErrDeadline(t *testing.T) {
	m := machines(t, 2, 1, false)
	pr := simnet.NewProgram(2)
	b := pr.Rank(0)
	b.Wait(b.Irecv(1, 7)) // rank 1 never sends
	o := simnet.DefaultOptions()
	if _, err := sched.RunProgram(context.Background(), m, pr, o); !errors.Is(err, simnet.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}

	// A cyclic wait deadlock: both ranks wait before sending.
	pr2 := simnet.NewProgram(2)
	for r := 0; r < 2; r++ {
		b := pr2.Rank(r)
		b.Wait(b.Irecv(1-r, 9))
		b.Post(1-r, 9, 8)
	}
	if _, err := sched.RunProgram(context.Background(), m, pr2, o); !errors.Is(err, simnet.ErrDeadline) {
		t.Fatalf("cyclic: want ErrDeadline, got %v", err)
	}
}

// hangUpCtx reports itself live to its first live Err calls and cancelled
// after: a client that hangs up once a run has started.
type hangUpCtx struct {
	context.Context
	live int
}

func (c *hangUpCtx) Err() error {
	if c.live > 0 {
		c.live--
		return nil
	}
	return context.Canceled
}

// TestProgramContextCancellation pins that a cancelled context aborts the
// evaluation with the concurrent engine's error shape (wrapping ErrAborted
// and the cancellation cause): before the first instruction — a program too
// short to reach a periodic poll included — and at a periodic poll.
func TestProgramContextCancellation(t *testing.T) {
	m := machines(t, 2, 1, false)
	// rank 0 posts, rank 1 receives: over long before any periodic poll.
	short := simnet.NewProgram(2)
	short.Rank(0).Post(1, 0, 8)
	b := short.Rank(1)
	b.Wait(b.Irecv(0, 0))
	// Long enough that the periodic poll fires.
	long := simnet.NewProgram(2)
	for r := 0; r < 2; r++ {
		b := long.Rank(r)
		for k := 0; k < 1<<13; k++ {
			b.ComputeExact(1e-9)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for name, pr := range map[string]*simnet.Program{"short": short, "long": long} {
		_, err := sched.RunProgram(ctx, m, pr, simnet.DefaultOptions())
		if !errors.Is(err, simnet.ErrAborted) || !errors.Is(err, context.Canceled) {
			t.Fatalf("%s program: want ErrAborted wrapping context.Canceled, got %v", name, err)
		}
	}

	// Cancelled after the entry poll: only a periodic poll can end the run.
	code, err := sched.Compile(long)
	if err != nil {
		t.Fatal(err)
	}
	hangUp := &hangUpCtx{Context: context.Background(), live: 1}
	if _, err := code.Run(hangUp, m, simnet.DefaultOptions()); !errors.Is(err, simnet.ErrAborted) || !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-run: want ErrAborted wrapping context.Canceled, got %v", err)
	}

	// An exhausted wall-clock deadline.
	o := simnet.DefaultOptions()
	o.Deadline = time.Nanosecond
	if _, err := sched.RunProgram(context.Background(), m, long, o); !errors.Is(err, simnet.ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", err)
	}
}
