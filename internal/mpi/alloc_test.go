package mpi

import (
	"testing"

	"repro/internal/sim"
)

// The matcher fast path must not allocate once the object pools are
// warm: post/match/complete of a small eager send recycles its message
// and receive records and (for real payloads) the eager snapshot
// storage. These are regression tests for the allocation-lean data
// plane; the threshold of 1 (instead of 0) tolerates a GC emptying a
// sync.Pool mid-measurement, which is legal and rare.

func allocWorld(t *testing.T, opts ...Option) *World {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; alloc counts are meaningless")
	}
	w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(1, 2), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// exerciseEager runs one eager round-trip between two ranks, driven
// from a single goroutine (eager sends complete at post time, so the
// sequence never blocks).
func exerciseEager(c0, c1 *Comm, buf0, buf1 Buf) error {
	if err := c0.Send(buf0, 1, 5); err != nil {
		return err
	}
	if _, err := c1.Recv(buf1, 0, 5); err != nil {
		return err
	}
	if err := c1.Send(buf1, 0, 6); err != nil {
		return err
	}
	if _, err := c0.Recv(buf0, 1, 6); err != nil {
		return err
	}
	return nil
}

func TestEagerMatcherPathAllocationFree(t *testing.T) {
	w := allocWorld(t)
	c0 := w.procs[0].CommWorld()
	c1 := w.procs[1].CommWorld()
	buf := Sized(8)

	// Warm the pools and the queue backing arrays.
	for i := 0; i < 32; i++ {
		if err := exerciseEager(c0, c1, buf, buf); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := exerciseEager(c0, c1, buf, buf); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 1 {
		t.Errorf("eager send/recv round trip allocates %.2f objects/op, want ~0", avg)
	}
}

func TestEagerRealDataAllocationFree(t *testing.T) {
	w := allocWorld(t, WithRealData())
	c0 := w.procs[0].CommWorld()
	c1 := w.procs[1].CommWorld()
	buf0 := Bytes(make([]byte, 64))
	buf1 := Bytes(make([]byte, 64))

	for i := 0; i < 32; i++ {
		if err := exerciseEager(c0, c1, buf0, buf1); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(200, func() {
		if err := exerciseEager(c0, c1, buf0, buf1); err != nil {
			t.Fatal(err)
		}
	})
	if avg >= 1 {
		t.Errorf("real-data eager round trip allocates %.2f objects/op, want ~0 (pooled snapshots)", avg)
	}
}

// TestSendrecvAllocationFree covers the collectives' workhorse: the
// blocking Sendrecv must stay allocation-free on the eager path too.
func TestSendrecvAllocationFree(t *testing.T) {
	w := allocWorld(t)
	c0 := w.procs[0].CommWorld()
	c1 := w.procs[1].CommWorld()
	buf := Sized(8)

	step := func() {
		// Post both receives first (single-goroutine driving), then
		// the eager sends satisfy them.
		r0, err := c0.postRecvReq(buf, 1, 9)
		if err != nil {
			t.Fatal(err)
		}
		r1, err := c1.postRecvReq(buf, 0, 9)
		if err != nil {
			t.Fatal(err)
		}
		if err := c0.Send(buf, 1, 9); err != nil {
			t.Fatal(err)
		}
		if err := c1.Send(buf, 0, 9); err != nil {
			t.Fatal(err)
		}
		if _, err := c0.p.waitRecvReq(r0); err != nil {
			t.Fatal(err)
		}
		if _, err := c1.p.waitRecvReq(r1); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		step()
	}
	avg := testing.AllocsPerRun(200, step)
	if avg >= 1 {
		t.Errorf("posted-receive exchange allocates %.2f objects/op, want ~0", avg)
	}
}
