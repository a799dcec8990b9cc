package mpi

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

func newTestWorld(t *testing.T, nodes, ppn int) *World {
	t.Helper()
	w, err := NewWorld(sim.Laptop(), sim.MustUniform(nodes, ppn), WithRealData())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestNewWorldValidation(t *testing.T) {
	if _, err := NewWorld(nil, sim.MustUniform(1, 2)); err == nil {
		t.Error("nil model accepted")
	}
	bad := sim.Laptop()
	bad.MemSaturation = 0
	if _, err := NewWorld(bad, sim.MustUniform(1, 2)); err == nil {
		t.Error("invalid model accepted")
	}
	if _, err := NewWorld(sim.Laptop(), nil); err == nil {
		t.Error("nil topology accepted")
	}
}

func TestRunBasics(t *testing.T) {
	w := newTestWorld(t, 2, 3)
	seen := make([]bool, 6)
	err := w.Run(func(p *Proc) error {
		seen[p.Rank()] = true
		if p.Size() != 6 {
			t.Errorf("rank %d sees size %d", p.Rank(), p.Size())
		}
		if p.Node() != p.Rank()/3 {
			t.Errorf("rank %d placement wrong: node=%d", p.Rank(), p.Node())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r, ok := range seen {
		if !ok {
			t.Errorf("rank %d never ran", r)
		}
	}
}

func TestRunCollectsErrors(t *testing.T) {
	w := newTestWorld(t, 1, 4)
	boom := errors.New("boom")
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 2 {
			return boom
		}
		return nil
	})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("error not propagated: %v", err)
	}
	var re *RankError
	if !errors.As(err, &re) || re.Rank != 2 {
		t.Errorf("RankError not exposed: %v", err)
	}
}

func TestRunRecoversPanic(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	err := w.Run(func(p *Proc) error {
		if p.Rank() == 1 {
			panic("deliberate")
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "deliberate") {
		t.Fatalf("panic not converted to error: %v", err)
	}
}

func TestEagerSendRecv(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			buf := FromFloat64s([]float64{1, 2, 3})
			if err := c.Send(buf, 1, 7); err != nil {
				return err
			}
			// Eager: sender pays only its overhead, far less
			// than the network latency.
			if p.Clock() >= p.Model().NetAlpha {
				t.Errorf("eager send blocked: clock=%v", p.Clock())
			}
			return nil
		}
		buf := Bytes(make([]byte, 24))
		st, err := c.Recv(buf, 0, 7)
		if err != nil {
			return err
		}
		if st.Source != 0 || st.Tag != 7 || st.Bytes != 24 {
			t.Errorf("status = %+v", st)
		}
		if got := buf.Float64At(2); got != 3 {
			t.Errorf("payload corrupted: %v", got)
		}
		// Receiver must have paid at least the network transfer.
		if p.Clock() < p.Model().NetAlpha {
			t.Errorf("receiver clock %v below net alpha", p.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestEagerBufferReuse(t *testing.T) {
	// After an eager Send returns, the sender may overwrite its buffer
	// without corrupting the in-flight message.
	w := newTestWorld(t, 1, 2)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			buf := FromFloat64s([]float64{42})
			if err := c.Send(buf, 1, 0); err != nil {
				return err
			}
			buf.PutFloat64(0, -1) // scribble
			return nil
		}
		buf := Bytes(make([]byte, 8))
		if _, err := c.Recv(buf, 0, 0); err != nil {
			return err
		}
		if got := buf.Float64At(0); got != 42 {
			t.Errorf("eager payload overwritten: got %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRendezvousTiming(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	m := w.model
	big := m.EagerLimit + 1024
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			if err := c.Send(Alloc(big, true), 1, 0); err != nil {
				return err
			}
			// Rendezvous: sender waits for the transfer.
			if p.Clock() < m.XferCost(sim.HopNet, big) {
				t.Errorf("rendezvous sender returned early: %v", p.Clock())
			}
			return nil
		}
		// Receiver arrives late; transfer cannot start before it.
		p.Elapse(5 * sim.Millisecond)
		if _, err := c.Recv(Alloc(big, true), 0, 0); err != nil {
			return err
		}
		want := 5*sim.Millisecond + m.XferCost(sim.HopNet, big)
		if p.Clock() < want {
			t.Errorf("receiver clock %v < %v", p.Clock(), want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSendrecvRing(t *testing.T) {
	const n = 8
	w := newTestWorld(t, 2, 4)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		val := FromFloat64s([]float64{float64(p.Rank())})
		got := Bytes(make([]byte, 8))
		right := (p.Rank() + 1) % n
		left := (p.Rank() - 1 + n) % n
		if _, err := c.Sendrecv(val, right, 3, got, left, 3); err != nil {
			return err
		}
		if int(got.Float64At(0)) != left {
			t.Errorf("rank %d got %v, want %d", p.Rank(), got.Float64At(0), left)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	w := newTestWorld(t, 1, 3)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		switch p.Rank() {
		case 0:
			got := Bytes(make([]byte, 8))
			for i := 0; i < 2; i++ {
				st, err := c.Recv(got, AnySource, AnyTag)
				if err != nil {
					return err
				}
				if st.Source != 1 && st.Source != 2 {
					t.Errorf("unexpected source %d", st.Source)
				}
			}
			return nil
		default:
			return c.Send(FromFloat64s([]float64{1}), 0, 10+p.Rank())
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestIsendIrecvOverlap(t *testing.T) {
	w := newTestWorld(t, 2, 1)
	m := w.model
	big := m.EagerLimit * 4
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			req, err := c.Isend(Alloc(big, true), 1, 0)
			if err != nil {
				return err
			}
			_, err = req.Wait()
			return err
		}
		req, err := c.Irecv(Alloc(big, true), 0, 0)
		if err != nil {
			return err
		}
		// Compute while the transfer is in flight: completion
		// should overlap rather than add.
		overlap := 10 * m.XferCost(sim.HopNet, big)
		p.Elapse(overlap)
		if _, err := req.Wait(); err != nil {
			return err
		}
		if p.Clock() > overlap+m.XferCost(sim.HopNet, big) {
			t.Errorf("no overlap: clock %v", p.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWaitIdempotent(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			return c.Send(FromFloat64s([]float64{5}), 1, 0)
		}
		req, err := c.Irecv(Bytes(make([]byte, 8)), 0, 0)
		if err != nil {
			return err
		}
		st1, err := req.Wait()
		if err != nil {
			return err
		}
		st2, err := req.Wait()
		if err != nil || st1 != st2 {
			t.Errorf("second Wait differs: %+v vs %+v (%v)", st1, st2, err)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := Waitall(nil); err != nil {
		t.Errorf("Waitall(nil) = %v", err)
	}
}

func TestRankValidation(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if _, err := c.Isend(Sized(8), 99, 0); err == nil {
			t.Error("out-of-range dst accepted")
		}
		if _, err := c.Irecv(Sized(8), -5, 0); err == nil {
			t.Error("negative src accepted")
		}
		if _, err := c.Irecv(Sized(8), AnySource, 0); err != nil {
			t.Errorf("AnySource rejected: %v", err)
		}
		// Drain the AnySource recv so ranks exit cleanly.
		if p.Rank() == 0 {
			return c.Send(Sized(8), 1, 0)
		}
		return c.Send(Sized(8), 0, 0)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNonOvertaking(t *testing.T) {
	// Two same-tag messages from the same sender must arrive in
	// posting order (MPI's FIFO guarantee that lets collectives reuse
	// one tag).
	w := newTestWorld(t, 1, 2)
	err := w.Run(func(p *Proc) error {
		c := p.CommWorld()
		if p.Rank() == 0 {
			if err := c.Send(FromFloat64s([]float64{1}), 1, 0); err != nil {
				return err
			}
			return c.Send(FromFloat64s([]float64{2}), 1, 0)
		}
		got := Bytes(make([]byte, 8))
		if _, err := c.Recv(got, 0, 0); err != nil {
			return err
		}
		first := got.Float64At(0)
		if _, err := c.Recv(got, 0, 0); err != nil {
			return err
		}
		if first != 1 || got.Float64At(0) != 2 {
			t.Errorf("messages overtook: %v then %v", first, got.Float64At(0))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	var after [4]sim.Time
	err := w.Run(func(p *Proc) error {
		// Stagger arrival times.
		p.Elapse(sim.Time(p.Rank()) * sim.Millisecond)
		if err := p.CommWorld().Barrier(); err != nil {
			return err
		}
		after[p.Rank()] = p.Clock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// All ranks must leave the barrier no earlier than the last
	// arrival (3 ms).
	for r, tm := range after {
		if tm < 3*sim.Millisecond {
			t.Errorf("rank %d left barrier at %v, before last arrival", r, tm)
		}
	}
}

func TestBarrierSingleRankFree(t *testing.T) {
	w, err := NewWorld(sim.Laptop(), sim.MustUniform(1, 1))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *Proc) error {
		if err := p.CommWorld().Barrier(); err != nil {
			return err
		}
		if p.Clock() != 0 {
			t.Errorf("1-rank barrier cost %v", p.Clock())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicClocks(t *testing.T) {
	// The same program must yield bit-identical virtual clocks on
	// every execution, regardless of host scheduling.
	run := func() []sim.Time {
		w := newTestWorld(t, 4, 4)
		err := w.Run(func(p *Proc) error {
			c := p.CommWorld()
			for iter := 0; iter < 3; iter++ {
				sendBuf := Alloc(1<<12, true)
				recvBuf := Alloc(1<<12, true)
				right := (p.Rank() + 1) % p.Size()
				left := (p.Rank() - 1 + p.Size()) % p.Size()
				if _, err := c.Sendrecv(sendBuf, right, 1, recvBuf, left, 1); err != nil {
					return err
				}
				if err := c.Barrier(); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]sim.Time, w.Size())
		for r := range out {
			out[r] = w.procs[r].Clock()
		}
		return out
	}
	a, b := run(), run()
	for r := range a {
		if a[r] != b[r] {
			t.Fatalf("rank %d clock differs across runs: %v vs %v", r, a[r], b[r])
		}
	}
}

func TestResetAndMaxClock(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	err := w.Run(func(p *Proc) error {
		p.Elapse(sim.Time(p.Rank()+1) * sim.Microsecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if w.MaxClock() != 2*sim.Microsecond {
		t.Errorf("MaxClock = %v", w.MaxClock())
	}
	w.ResetClocks()
	if w.MaxClock() != 0 {
		t.Errorf("clocks not reset: %v", w.MaxClock())
	}
}

func TestComputeAndCopyCharges(t *testing.T) {
	w := newTestWorld(t, 1, 1)
	err := w.Run(func(p *Proc) error {
		m := p.Model()
		p.Compute(m.FlopsPerSecond) // one virtual second
		if p.Clock() != sim.Second {
			t.Errorf("compute charge = %v", p.Clock())
		}
		start := p.Clock()
		dst, src := Alloc(1024, true), Alloc(1024, true)
		src.PutFloat64(0, 9)
		p.CopyLocal(dst, src, 1)
		if dst.Float64At(0) != 9 {
			t.Error("CopyLocal did not move data")
		}
		if p.Clock()-start != m.CopyCost(1024, 1) {
			t.Errorf("copy charge = %v", p.Clock()-start)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
