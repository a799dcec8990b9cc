package mpi

import (
	"testing"

	"repro/internal/sim"
)

func TestSplitTypeShared(t *testing.T) {
	w := newTestWorld(t, 3, 4)
	err := w.Run(func(p *Proc) error {
		node, err := p.CommWorld().SplitTypeShared()
		if err != nil {
			return err
		}
		if node.Size() != 4 {
			t.Errorf("rank %d: node comm size %d", p.Rank(), node.Size())
		}
		if node.Rank() != p.Rank()%4 {
			t.Errorf("rank %d: node rank %d != local rank %d", p.Rank(), node.Rank(), p.Rank()%4)
		}
		// Every member must be on my node.
		for r := 0; r < node.Size(); r++ {
			if w.Topology().NodeOf(node.Ranks()[r]) != p.Node() {
				t.Errorf("rank %d: node comm contains foreign rank %d", p.Rank(), node.Ranks()[r])
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitBridge(t *testing.T) {
	w := newTestWorld(t, 3, 4)
	err := w.Run(func(p *Proc) error {
		world := p.CommWorld()
		node, err := world.SplitTypeShared()
		if err != nil {
			return err
		}
		// The paper's bridge communicator (Fig. 2): the lowest rank of
		// each shared-memory group joins, everyone else opts out.
		color := Undefined
		if node.Rank() == 0 {
			color = 0
		}
		bridge, err := world.Split(color, world.Rank())
		if err != nil {
			return err
		}
		if node.Rank() == 0 {
			// Leaders: bridge of one rank per node, ordered by node.
			if bridge == nil {
				t.Errorf("leader %d got nil bridge", p.Rank())
				return nil
			}
			if bridge.Size() != 3 {
				t.Errorf("bridge size %d, want 3", bridge.Size())
			}
			if bridge.Rank() != p.Node() {
				t.Errorf("leader of node %d has bridge rank %d", p.Node(), bridge.Rank())
			}
		} else if bridge != nil {
			t.Errorf("child %d got a bridge communicator", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitByParity(t *testing.T) {
	w := newTestWorld(t, 1, 6)
	err := w.Run(func(p *Proc) error {
		c, err := p.CommWorld().Split(p.Rank()%2, -p.Rank())
		if err != nil {
			return err
		}
		if c.Size() != 3 {
			t.Errorf("parity comm size %d", c.Size())
		}
		// Negative keys reverse the order.
		wantRank := map[int]int{0: 2, 2: 1, 4: 0, 1: 2, 3: 1, 5: 0}[p.Rank()]
		if c.Rank() != wantRank {
			t.Errorf("rank %d: got comm rank %d, want %d", p.Rank(), c.Rank(), wantRank)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitCommIsolation(t *testing.T) {
	// Traffic on a split communicator must not be visible to the
	// parent (distinct contexts).
	w := newTestWorld(t, 1, 4)
	err := w.Run(func(p *Proc) error {
		world := p.CommWorld()
		sub, err := world.Split(p.Rank()%2, p.Rank())
		if err != nil {
			return err
		}
		if p.Rank()%2 == 0 {
			// Even ranks exchange on sub with tag 0...
			peer := 1 - sub.Rank()
			buf := FromFloat64s([]float64{float64(p.Rank())})
			got := Bytes(make([]byte, 8))
			if _, err := sub.Sendrecv(buf, peer, 0, got, peer, 0); err != nil {
				return err
			}
		} else {
			// ...while odd ranks exchange on world with tag 0.
			peer := map[int]int{1: 3, 3: 1}[p.Rank()]
			buf := FromFloat64s([]float64{float64(p.Rank())})
			got := Bytes(make([]byte, 8))
			if _, err := world.Sendrecv(buf, peer, 0, got, peer, 0); err != nil {
				return err
			}
			if int(got.Float64At(0)) != peer {
				t.Errorf("rank %d: cross-context leak, got %v", p.Rank(), got.Float64At(0))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestDup(t *testing.T) {
	w := newTestWorld(t, 1, 3)
	err := w.Run(func(p *Proc) error {
		// MPI_Comm_dup is a one-color Split keyed by rank.
		d, err := p.CommWorld().Split(0, p.Rank())
		if err != nil {
			return err
		}
		if d.Size() != 3 || d.Rank() != p.Rank() {
			t.Errorf("dup mismatch: size %d rank %d", d.Size(), d.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestSplitUndefined(t *testing.T) {
	w := newTestWorld(t, 1, 4)
	err := w.Run(func(p *Proc) error {
		color := Undefined
		if p.Rank() < 2 {
			color = 0
		}
		c, err := p.CommWorld().Split(color, 0)
		if err != nil {
			return err
		}
		if p.Rank() < 2 && (c == nil || c.Size() != 2) {
			t.Errorf("rank %d: want 2-rank comm, got %v", p.Rank(), c)
		}
		if p.Rank() >= 2 && c != nil {
			t.Errorf("rank %d: want nil comm", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCommWorldSingleton(t *testing.T) {
	// Regression: CommWorld() used to hand out fresh handles whose
	// independent coordination sequence numbers collided, deadlocking
	// repeated single-node barriers obtained through separate calls.
	w := newTestWorld(t, 1, 8)
	err := w.Run(func(p *Proc) error {
		if p.CommWorld() != p.CommWorld() {
			t.Error("CommWorld not a singleton")
		}
		for i := 0; i < 4; i++ {
			if err := p.CommWorld().Barrier(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinAllocateShared(t *testing.T) {
	w := newTestWorld(t, 2, 3)
	err := w.Run(func(p *Proc) error {
		node, err := p.CommWorld().SplitTypeShared()
		if err != nil {
			return err
		}
		// The paper's pattern: only the leader contributes.
		mySize := 0
		if node.Rank() == 0 {
			mySize = 3 * 8
		}
		win, err := WinAllocateShared(node, mySize)
		if err != nil {
			return err
		}
		if win.Whole().Len() != 24 {
			t.Errorf("window size %d, want 24", win.Whole().Len())
		}
		// Each rank writes its slot in the leader's segment.
		seg := win.Query(0)
		seg.PutFloat64(node.Rank(), float64(p.Rank()))
		if err := node.Barrier(); err != nil {
			return err
		}
		// Every rank must observe everyone's writes: one real
		// shared copy per node.
		for r := 0; r < node.Size(); r++ {
			want := float64(p.Rank() - node.Rank() + r)
			if got := seg.Float64At(r); got != want {
				t.Errorf("rank %d sees slot %d = %v, want %v", p.Rank(), r, got, want)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinPerRankSegments(t *testing.T) {
	w := newTestWorld(t, 1, 4)
	err := w.Run(func(p *Proc) error {
		node, err := p.CommWorld().SplitTypeShared()
		if err != nil {
			return err
		}
		win, err := WinAllocateShared(node, 8)
		if err != nil {
			return err
		}
		win.Mine().PutFloat64(0, float64(100+p.Rank()))
		if err := node.Barrier(); err != nil {
			return err
		}
		for r := 0; r < node.Size(); r++ {
			if got := win.Query(r).Float64At(0); got != float64(100+r) {
				t.Errorf("segment %d reads %v", r, got)
			}
		}
		if win.Whole().Len() != 32 {
			t.Errorf("whole segment %d bytes", win.Whole().Len())
		}
		if win.comm != node {
			t.Error("win.Comm mismatch")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinRejectsCrossNode(t *testing.T) {
	w := newTestWorld(t, 2, 2)
	err := w.Run(func(p *Proc) error {
		if _, err := WinAllocateShared(p.CommWorld(), 8); err == nil {
			t.Errorf("rank %d: cross-node window accepted", p.Rank())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWinRejectsBadArgs(t *testing.T) {
	w := newTestWorld(t, 1, 2)
	err := w.Run(func(p *Proc) error {
		node, err := p.CommWorld().SplitTypeShared()
		if err != nil {
			return err
		}
		if _, err := WinAllocateShared(node, -1); err == nil {
			t.Error("negative size accepted")
		}
		// All ranks must still agree on the subsequent calls, so
		// make the failing call collectively... it failed before
		// exchanging, which is fine: the error path is local.
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := WinAllocateShared(nil, 8); err == nil {
		t.Error("nil comm accepted")
	}
}

func TestSizeOnlyWorldMovesNoData(t *testing.T) {
	w, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 2)) // no WithRealData
	if err != nil {
		t.Fatal(err)
	}
	if w.RealData() {
		t.Fatal("world unexpectedly real")
	}
	err = w.Run(func(p *Proc) error {
		if w.NewBuf(64).Real() {
			t.Error("NewBuf returned real buffer in size-only mode")
		}
		c := p.CommWorld()
		// Timing must flow even with no bytes anywhere.
		if p.Rank() == 0 {
			return c.Send(Sized(1<<20), 1, 0)
		}
		if p.Rank() == 1 {
			_, err := c.Recv(Sized(1<<20), 0, 0)
			if err != nil {
				return err
			}
			if p.Clock() < p.Model().XferCost(sim.HopShm, 1<<20) {
				t.Errorf("size-only transfer undercharged: %v", p.Clock())
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
