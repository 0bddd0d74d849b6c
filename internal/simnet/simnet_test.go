package simnet

import (
	"errors"
	"math"
	"testing"
	"time"
)

// fakeMachine is a uniform machine with exact, noise-free parameters so the
// timing rules can be checked analytically.
type fakeMachine struct {
	procs     int
	latency   float64
	gap       float64
	beta      float64
	overhead  float64
	self      float64
	sharedNIC bool
}

func (f *fakeMachine) Procs() int                 { return f.procs }
func (f *fakeMachine) Latency(i, j int) float64   { return f.latency }
func (f *fakeMachine) Gap(i, j int) float64       { return f.gap }
func (f *fakeMachine) Beta(i, j int) float64      { return f.beta }
func (f *fakeMachine) Overhead(i, j int) float64  { return f.overhead }
func (f *fakeMachine) SelfOverhead(i int) float64 { return f.self }
func (f *fakeMachine) NIC(i int) int {
	if f.sharedNIC {
		return 0
	}
	return i
}
func (f *fakeMachine) Noise(rank int, seq uint64) float64 { return 1 }
func (f *fakeMachine) Pair(i, j int) (lat, gap, beta, ovh, ret float64, sameNIC bool) {
	return f.latency, f.gap, f.beta, f.overhead, f.latency, f.NIC(i) == f.NIC(j)
}

func defaultFake(p int) *fakeMachine {
	return &fakeMachine{procs: p, latency: 10e-6, gap: 1e-6, beta: 1e-9, overhead: 1e-6, self: 0.1e-6}
}

func TestPingTimings(t *testing.T) {
	m := defaultFake(2)
	res, err := Run(m, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Post(1, 7, 100, "hello")
		case 1:
			got := p.Recv(0, 7)
			if got != "hello" {
				t.Errorf("payload = %v", got)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender: overhead only (fire and forget).
	if math.Abs(res.Times[0]-1e-6) > 1e-9 {
		t.Fatalf("sender time = %g, want ~1e-6", res.Times[0])
	}
	// Receiver: arrival = overhead + latency + 100*beta = 1e-6 + 10e-6 + 1e-7.
	want := 1e-6 + 10e-6 + 100e-9
	if math.Abs(res.Times[1]-want) > 1e-9 {
		t.Fatalf("receiver time = %g, want %g", res.Times[1], want)
	}
	if res.Messages != 1 || res.Bytes != 100 {
		t.Fatalf("counters: %d msgs, %d bytes", res.Messages, res.Bytes)
	}
	if res.MakeSpan != MaxTime(res.Times) {
		t.Fatal("MakeSpan != max of Times")
	}
}

func TestAckedSendCostsRoundTrip(t *testing.T) {
	m := defaultFake(2)
	res, err := Run(m, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, 0, nil) // blocking, acked
		case 1:
			p.Recv(0, 1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sender completion = overhead + latency (arrival) + latency (ack).
	want := 1e-6 + 10e-6 + 10e-6
	if math.Abs(res.Times[0]-want) > 1e-9 {
		t.Fatalf("acked send time = %g, want %g", res.Times[0], want)
	}
	// With acks disabled the send completes when the port frees.
	res2, err := Run(m, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Send(1, 1, 0, nil)
		case 1:
			p.Recv(0, 1)
		}
		return nil
	}, Options{AckSends: false, Deadline: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Times[0] >= res.Times[0] {
		t.Fatalf("unacked send (%g) should be cheaper than acked (%g)", res2.Times[0], res.Times[0])
	}
}

func TestOverlapOfEagerSends(t *testing.T) {
	// The receiver computes for much longer than the transfer takes; the
	// receive then completes immediately — communication was overlapped.
	m := defaultFake(2)
	const work = 1e-3
	res, err := Run(m, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			p.Post(1, 3, 1000, nil)
		case 1:
			p.Compute(work)
			p.Recv(0, 3)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Times[1] > work*1.01 {
		t.Fatalf("receive was not overlapped: %g", res.Times[1])
	}
}

func TestInjectionPortSerializesSends(t *testing.T) {
	// One rank fans out many messages; the last arrival reflects the
	// serialized port occupancy (gap per message).
	const fanout = 10
	m := defaultFake(fanout + 1)
	res, err := Run(m, func(p *Proc) error {
		if p.Rank() == 0 {
			for d := 1; d <= fanout; d++ {
				p.Post(d, 0, 0, nil)
			}
			return nil
		}
		p.Recv(0, 0)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// The last destination cannot receive before fanout gaps have elapsed.
	minLast := float64(fanout)*1e-6 + 10e-6
	last := res.Times[fanout]
	if last < minLast*0.9 {
		t.Fatalf("fan-out not serialized: last arrival %g < %g", last, minLast)
	}
	// The first destination should be much earlier than the last.
	if res.Times[1] >= last {
		t.Fatalf("expected pipelining: first %g, last %g", res.Times[1], last)
	}
}

func TestIntraNICBypassesPorts(t *testing.T) {
	shared := defaultFake(2)
	shared.sharedNIC = true
	shared.gap = 5e-6
	separate := defaultFake(2)
	separate.gap = 5e-6
	body := func(p *Proc) error {
		switch p.Rank() {
		case 0:
			for i := 0; i < 20; i++ {
				p.Post(1, i, 0, nil)
			}
		case 1:
			for i := 0; i < 20; i++ {
				p.Recv(0, i)
			}
		}
		return nil
	}
	rShared, err := Run(shared, body)
	if err != nil {
		t.Fatal(err)
	}
	rSep, err := Run(separate, body)
	if err != nil {
		t.Fatal(err)
	}
	if rShared.Times[1] >= rSep.Times[1] {
		t.Fatalf("intra-NIC traffic (%g) should beat inter-NIC traffic (%g)",
			rShared.Times[1], rSep.Times[1])
	}
}

func TestWaitAllAndIrecvOrdering(t *testing.T) {
	m := defaultFake(3)
	res, err := Run(m, func(p *Proc) error {
		switch p.Rank() {
		case 0:
			reqs := []*Request{p.Irecv(1, 0), p.Irecv(2, 0)}
			payloads := p.WaitAll(reqs)
			if payloads[0] != 11 || payloads[1] != 22 {
				t.Errorf("payloads = %v", payloads)
			}
		case 1:
			p.Post(0, 0, 8, 11)
		case 2:
			p.Post(0, 0, 8, 22)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Times[0] <= 0 {
		t.Fatal("receiver time not advanced")
	}
}

func TestDeterministicRepetition(t *testing.T) {
	m := defaultFake(4)
	body := func(p *Proc) error {
		next := (p.Rank() + 1) % p.Size()
		prev := (p.Rank() + p.Size() - 1) % p.Size()
		req := p.Irecv(prev, 5)
		p.Post(next, 5, 64, p.Rank())
		p.Compute(3e-6)
		p.Wait(req)
		return nil
	}
	r1, err := Run(m, body)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(m, body)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Times {
		if r1.Times[i] != r2.Times[i] {
			t.Fatalf("nondeterministic times at rank %d: %g vs %g", i, r1.Times[i], r2.Times[i])
		}
	}
}

func TestComputeAndAdvance(t *testing.T) {
	m := defaultFake(1)
	res, err := Run(m, func(p *Proc) error {
		p.Compute(1e-3)
		p.ComputeExact(1e-3)
		p.Compute(-5) // negative work is clamped to zero
		p.AdvanceTo(5e-3)
		p.AdvanceTo(1e-3) // no-op
		if p.Now() != 5e-3 {
			t.Errorf("Now = %g", p.Now())
		}
		if p.Size() != 1 || p.Rank() != 0 {
			t.Error("Rank/Size wrong")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Times[0] != 5e-3 {
		t.Fatalf("final time %g", res.Times[0])
	}
}

func TestBodyErrorPropagates(t *testing.T) {
	m := defaultFake(2)
	boom := errors.New("boom")
	_, err := Run(m, func(p *Proc) error {
		if p.Rank() == 1 {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
}

func TestPanicIsRecovered(t *testing.T) {
	m := defaultFake(1)
	_, err := Run(m, func(p *Proc) error {
		panic("kaboom")
	})
	if err == nil {
		t.Fatal("expected error from panicking rank")
	}
}

func TestDeadlockHitsDeadline(t *testing.T) {
	m := defaultFake(2)
	_, err := Run(m, func(p *Proc) error {
		if p.Rank() == 0 {
			p.Recv(1, 9) // never sent
		}
		return nil
	}, Options{AckSends: true, Deadline: 50 * time.Millisecond})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want deadline", err)
	}
}

func TestInvalidRankPanicsAreReported(t *testing.T) {
	m := defaultFake(1)
	if _, err := Run(m, func(p *Proc) error { p.Post(5, 0, 0, nil); return nil }); err == nil {
		t.Fatal("send to invalid rank should error")
	}
	if _, err := Run(m, func(p *Proc) error { p.Irecv(-1, 0); return nil }); err == nil {
		t.Fatal("recv from invalid rank should error")
	}
	if _, err := Run(nil, func(p *Proc) error { return nil }); err == nil {
		t.Fatal("nil machine should error")
	}
}

func TestHelpers(t *testing.T) {
	if MaxTime(nil) != 0 {
		t.Fatal("MaxTime(nil) should be 0")
	}
	if MaxTime([]float64{1, 3, 2}) != 3 {
		t.Fatal("MaxTime wrong")
	}
	s := SortedCopy([]float64{3, 1, 2})
	if s[0] != 1 || s[2] != 3 {
		t.Fatal("SortedCopy wrong")
	}
}
