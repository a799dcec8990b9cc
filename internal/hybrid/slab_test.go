package hybrid

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestCtxHandleSize pins a rank's Ctx at two words, its composer and
// its sync flavor: the communicators are the composer's, and anything
// else a rank keeps is shared state copied back into every element of
// the setup slab.
func TestCtxHandleSize(t *testing.T) {
	if got, want := unsafe.Sizeof(Ctx{}), 2*unsafe.Sizeof(uintptr(0)); got != want {
		t.Errorf("Ctx is %d bytes, want %d (a composer and a sync flavor)", got, want)
	}
}

// TestHandlesComeFromPerCallSlabs drives every constructor that cuts
// its handle from a setup slab (mpi.SetupSlab) — the context with its
// composer, and the seven collectives with their windows — twice per
// Run, for two Runs of one world, over three communicators: the world,
// a round-robin reordering of it (comm ranks alternate nodes, so slot
// order is not rank order) and a Split half whose comm ranks are not
// world ranks. Every handle must be its own object bound to its own
// rank, two allgatherers built back to back must not share a buffer,
// and the second Run's construction must leave the first Run's
// contexts as they were.
func TestHandlesComeFromPerCallSlabs(t *testing.T) {
	const nodes, ppn = 2, 4
	for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
		w, err := mpi.NewWorld(sim.Laptop(), sim.MustUniform(nodes, ppn), mpi.WithRealData(), mpi.WithEngine(eng))
		if err != nil {
			t.Fatal(err)
		}
		type built struct {
			ctx  *Ctx
			was  Ctx
			rest []any
		}
		var handles [2][nodes * ppn][]built // run, world rank
		for run := range handles {
			w.ResetClocks()
			err := w.Run(func(p *mpi.Proc) error {
				world := p.CommWorld()
				// Comm rank r sits on node r%2: 0,4,1,5,2,6,3,7.
				rr, err := world.Split(0, p.Rank()%ppn*nodes+p.Rank()/ppn)
				if err != nil {
					return err
				}
				// Ranks 0,1 and 4,5 against 2,3 and 6,7: two nodes each.
				half, err := world.Split(p.Rank()/2%2, p.Rank())
				if err != nil {
					return err
				}
				for _, c := range []*mpi.Comm{world, rr, half} {
					for call := 0; call < 2; call++ {
						b, err := buildAll(c, float64(100*run+10*call))
						if err != nil {
							return fmt.Errorf("run %d, comm of %d, call %d: %w", run, c.Size(), call, err)
						}
						handles[run][p.Rank()] = append(handles[run][p.Rank()], built{b[0].(*Ctx), *b[0].(*Ctx), b})
					}
				}
				return nil
			})
			if err != nil {
				t.Fatalf("%v engine: %v", eng, err)
			}
		}
		seen := map[any]bool{}
		for run := range handles {
			for r, bs := range handles[run] {
				for _, b := range bs {
					if *b.ctx != b.was {
						t.Errorf("%v engine, run %d rank %d: context changed after it was built: %+v, was %+v", eng, run, r, *b.ctx, b.was)
					}
					for _, h := range b.rest {
						if seen[h] {
							t.Errorf("%v engine, run %d rank %d: %T handed out twice", eng, run, r, h)
						}
						seen[h] = true
					}
				}
			}
		}
		w.Close()
	}
}

// buildAll builds one context over c and one of every collective on
// it, checks each is bound to this rank, and runs two allgatherers
// built back to back against each other. It returns every handle, the
// context first.
func buildAll(c *mpi.Comm, mark float64) ([]any, error) {
	ctx, err := New(c)
	if err != nil {
		return nil, err
	}
	if ctx.comm() != c || ctx.node().Proc() != c.Proc() {
		return nil, fmt.Errorf("context bound to another rank's communicator")
	}
	win, err := mpi.WinAllocateShared(ctx.node(), 8)
	if err != nil {
		return nil, err
	}
	if win.Mine().Len() != 8 {
		return nil, fmt.Errorf("window bound to another rank")
	}
	a1, err := ctx.NewAllgatherer(8)
	if err != nil {
		return nil, err
	}
	a2, err := ctx.NewAllgatherer(8)
	if err != nil {
		return nil, err
	}
	bc, err := ctx.NewBcaster(8)
	if err != nil {
		return nil, err
	}
	ar, err := ctx.NewAllreducer(1, mpi.Float64)
	if err != nil {
		return nil, err
	}
	at, err := ctx.NewAlltoaller(8)
	if err != nil {
		return nil, err
	}
	for _, k := range []collective{a1.collective, a2.collective, bc.collective, ar.collective, at.collective} {
		if k.ctx != ctx {
			return nil, fmt.Errorf("collective bound to another rank's context")
		}
	}

	a1.Mine().PutFloat64(0, mark+float64(c.Rank()))
	a2.Mine().PutFloat64(0, -mark-float64(c.Rank()))
	for _, a := range []*Allgatherer{a1, a2} {
		if err := a.Allgather(); err != nil {
			return nil, err
		}
	}
	for r := 0; r < c.Size(); r++ {
		if g1, g2 := a1.Block(r).Float64At(0), a2.Block(r).Float64At(0); g1 != mark+float64(r) || g2 != -g1 {
			return nil, fmt.Errorf("block %d reads %v and %v, want %v and its negation", r, g1, g2, mark+float64(r))
		}
	}
	return []any{ctx, ctx.comp, win, a1, a2, bc, ar, at}, nil
}
