package mpi

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// slabMark is what a rank writes into its slab element: which Run,
// which collective call and which comm rank it was.
type slabMark struct{ run, call, rank int }

// TestSetupSlabElements pins the slab rule on both engines: every call
// on a communicator cuts a fresh slab (two calls never alias), a member
// gets the zero element at its comm rank — on a Split sub-communicator
// whose comm ranks run against the world ranks too — beside the plan
// the one builder returned, and what a rank wrote during one Run of a
// reused world is still there after the next Run has built its own.
func TestSetupSlabElements(t *testing.T) {
	const n, calls = 8, 3
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w, err := NewWorld(sim.Laptop(), sim.MustUniform(2, 4), WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		var got [2][calls][n]*slabMark // run, call, world rank
		for run := range got {
			w.ResetClocks()
			err := w.Run(func(p *Proc) error {
				world := p.CommWorld()
				// Odd and even halves, each in descending world-rank order.
				sub, err := world.Split(p.Rank()%2, -p.Rank())
				if err != nil {
					return err
				}
				if want := (n - 1 - p.Rank()) / 2; sub.Rank() != want {
					return fmt.Errorf("sub rank %d, want %d", sub.Rank(), want)
				}
				for call, c := range [calls]*Comm{world, world, sub} {
					builds := 0
					h, plan, err := SetupSlab[slabMark](c, func() (any, error) { builds++; return call, nil })
					if err != nil || plan != call || builds > 1 {
						return fmt.Errorf("call %d: plan %v, err %v, %d builds", call, plan, err, builds)
					}
					if *h != (slabMark{}) {
						return fmt.Errorf("call %d: element handed out as %+v, want zero", call, *h)
					}
					*h = slabMark{run, call, c.Rank()}
					got[run][call][p.Rank()] = h
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v engine, run %d: %v", eng, run, err)
			}
		}
		seen := map[*slabMark]bool{}
		for run := range got {
			for call := range got[run] {
				for r, h := range got[run][call] {
					want := slabMark{run, call, r}
					if call == 2 {
						want.rank = (n - 1 - r) / 2
					}
					if seen[h] || *h != want {
						t.Errorf("%v engine, run %d call %d rank %d: element %+v (aliased: %v), want %+v",
							eng, run, call, r, *h, seen[h], want)
					}
					seen[h] = true
				}
			}
		}
		w.Close()
	}
}

// TestExecSpan: per-rank setup storage is as long as the ranks that
// execute — the communicator unfolded, the members inside the fold unit
// folded — and SetupSlab indexes it by comm rank there too.
func TestExecSpan(t *testing.T) {
	for _, c := range []struct {
		fold, world, node int
	}{{0, 32, 4}, {4, 4, 4}, {8, 8, 4}} {
		var opts []Option
		if c.fold > 0 {
			opts = append(opts, withFold(c.fold))
		}
		w, err := NewWorld(sim.Laptop(), sim.MustUniform(8, 4), opts...)
		if err != nil {
			t.Fatal(err)
		}
		err = w.Run(func(p *Proc) error {
			world := p.CommWorld()
			node, err := world.SplitTypeShared()
			if err != nil {
				return err
			}
			if world.ExecSpan() != c.world || node.ExecSpan() != c.node {
				return fmt.Errorf("ExecSpan world %d node %d, want %d and %d", world.ExecSpan(), node.ExecSpan(), c.world, c.node)
			}
			h, _, _ := SetupSlab[int](world, nil)
			*h = p.Rank()
			return nil
		})
		if err != nil {
			t.Errorf("fold %d: %v", c.fold, err)
		}
		w.Close()
	}
}
