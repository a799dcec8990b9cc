package mpi

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/sim"
)

// foldSafeBody is a workload inside the folding contract: size-only
// payloads, translational cross-unit Sendrecv (ring pattern over the
// whole world), an XOR exchange, in-unit traffic, the dissemination
// barrier and a clock fusion — all rank-symmetric.
func foldSafeBody(iters int) func(p *Proc) error {
	return func(p *Proc) error {
		c := p.CommWorld()
		n := c.Size()
		rank := c.Rank()
		right, left := (rank+1)%n, (rank-1+n)%n
		for i := 0; i < iters; i++ {
			p.Compute(200)
			// Translational ring step crossing unit boundaries.
			if _, err := c.Sendrecv(Sized(96), right, 3, Sized(96), left, 3); err != nil {
				return err
			}
			// XOR exchange at a mask spanning units (n and the unit are
			// powers of two in these tests).
			if _, err := c.Sendrecv(Sized(48), rank^(n/2), 4, Sized(48), rank^(n/2), 4); err != nil {
				return err
			}
			if err := c.Barrier(); err != nil {
				return err
			}
		}
		p.AwaitTime(c.FuseClocks(p.Clock()))
		return nil
	}
}

// withFold sets Config.FoldUnit.
func withFold(u int) Option { return func(c *Config) { c.FoldUnit = u } }

// TestFoldedClocksMatchUnfolded is the core folding guarantee: with
// FoldUnit u only ranks 0..u-1 execute, yet every rank — including
// the non-representative replicas, whose Procs alias their class
// representative — must report exactly the clock the full-width run
// produces. Checked on both engines.
func TestFoldedClocksMatchUnfolded(t *testing.T) {
	topo := sim.MustUniform(4, 4)
	if got := topo.FoldUnit(); got != 4 {
		t.Fatalf("FoldUnit() = %d, want 4", got)
	}
	want := perRankClocks(t, topo, sim.EngineGoroutine, foldSafeBody(3))
	for _, e := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		got := perRankClocks(t, topo, e, foldSafeBody(3), withFold(4))
		diffClocks(t, "folded "+e.String(), got, want)
	}
}

// TestFoldedWorldExecRanks pins the folded world's bookkeeping: the
// executing set collapses to the unit and replica Procs alias their
// representative.
func TestFoldedWorldExecRanks(t *testing.T) {
	w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(4, 4), withFold(4))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if w.foldUnit != 4 || w.execN != 4 {
		t.Errorf("fold unit %d, %d executing ranks, want 4 and 4", w.foldUnit, w.execN)
	}
	for r := 0; r < w.Size(); r++ {
		if w.procs[r] != w.procs[r%4] {
			t.Errorf("rank %d does not alias representative %d", r, r%4)
		}
	}
}

func TestFoldValidation(t *testing.T) {
	model := sim.HazelHenCray()
	irregular, err := sim.NewTopology([]int{3, 5, 4, 4})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		topo *sim.Topology
		opts []Option
		want string
	}{
		{"negative", sim.MustUniform(4, 4), []Option{withFold(-1)}, "fold unit"},
		{"irregular", irregular, []Option{withFold(4)}, "irregular"},
		{"not-multiple", sim.MustUniform(4, 4), []Option{withFold(3)}, "multiple"},
		{"real-data", sim.MustUniform(4, 4), []Option{withFold(4), WithRealData()}, "size-only"},
	}
	for _, tc := range cases {
		w, err := NewWorld(model, tc.topo, tc.opts...)
		if err == nil {
			w.Close()
			t.Errorf("%s: NewWorld accepted an invalid fold configuration", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

// TestFoldUnsafeSplit: communicator construction that exchanges across
// a fold-unit boundary cannot be replicated analytically, so it must
// fail the Run with ErrFoldUnsafe instead of computing wrong clocks.
func TestFoldUnsafeSplit(t *testing.T) {
	for _, e := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(4, 4), WithEngine(e), withFold(4))
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *Proc) error {
			// Splitting by parity groups ranks across units: the comm
			// spans the world, and Split's plan exchange trips the guard.
			_, err := p.CommWorld().Split(p.Rank()%2, p.Rank())
			return err
		})
		if !errors.Is(err, ErrFoldUnsafe) {
			t.Errorf("%v: Run returned %v, want ErrFoldUnsafe", e, err)
		}
		w.Close()
	}
}

// TestFoldAsymmetryTripwire: a workload whose representatives leave
// unmatched cross-unit traffic behind is not fold-symmetric; the run
// must fail loudly rather than silently drop the messages.
func TestFoldAsymmetryTripwire(t *testing.T) {
	w, err := NewWorld(sim.HazelHenCray(), sim.MustUniform(4, 4), WithEngine(sim.EngineEvent), withFold(4))
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	err = w.Run(func(p *Proc) error {
		if p.Rank() != 0 {
			return nil
		}
		// Rank-dependent behavior: only rank 0 sends, to a replica rank
		// whose representative posts no matching receive. The eager send
		// completes at post and the message sits in the matcher.
		return p.CommWorld().Send(Sized(8), 5, 11)
	})
	if err == nil || !strings.Contains(err.Error(), "fold-symmetric") {
		t.Errorf("Run returned %v, want a not-fold-symmetric error", err)
	}
}
