package hybrid

import (
	"fmt"
	"testing"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

func runHierWorld(t *testing.T, topo *sim.Topology, opts []mpi.Option, body func(p *mpi.Proc) error) *mpi.World {
	t.Helper()
	w, err := mpi.NewWorld(sim.HazelHenCray(), topo, append([]mpi.Option{mpi.WithRealData()}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	return w
}

// atLevel is a communicator's handle carrying the sharedlevel= tuning
// key, which is how a context's window is placed below the node.
func atLevel(c *mpi.Comm, level string) *mpi.Comm {
	return coll.WithTuning(c, coll.Tuning{SharedLevel: level})
}

func socketTopo(t *testing.T) *sim.Topology {
	t.Helper()
	topo, err := sim.UniformHier(3,
		sim.LevelDim{Name: "socket", Arity: 2},
		sim.LevelDim{Name: "node", Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

// TestSocketLevelHybrid places the shared window at the socket level:
// four windows instead of two, every socket leader on the bridge, and
// the allgather result still correct on every rank — for all three
// sync flavors.
func TestSocketLevelHybrid(t *testing.T) {
	for _, mode := range []SyncMode{SyncBarrier, SyncP2P, SyncSharedFlags} {
		t.Run(mode.String(), func(t *testing.T) {
			topo := socketTopo(t)
			const elems = 6
			per := 8 * elems
			runHierWorld(t, topo, nil, func(p *mpi.Proc) error {
				ctx, err := New(atLevel(p.CommWorld(), "socket"), WithSync(mode))
				if err != nil {
					return err
				}
				if ctx.node().Size() != 3 {
					return fmt.Errorf("socket comm size = %d, want 3", ctx.node().Size())
				}
				if ctx.Nodes() != 4 {
					return fmt.Errorf("groups = %d, want 4 sockets", ctx.Nodes())
				}
				// Socket leaders — one per socket — form the bridge.
				if p.Rank()%3 == 0 {
					if ctx.bridge() == nil || ctx.bridge().Size() != 4 {
						return fmt.Errorf("bridge missing or wrong size on socket leader")
					}
				} else if ctx.bridge() != nil {
					return fmt.Errorf("child rank %d has a bridge handle", p.Rank())
				}

				a, err := ctx.NewAllgatherer(per)
				if err != nil {
					return err
				}
				src := make([]float64, elems)
				for i := range src {
					src[i] = float64(p.Rank()*1_000_000 + i)
				}
				a.Mine().PutFloat64s(0, src)
				if err := a.Allgather(); err != nil {
					return err
				}
				for r := 0; r < p.Size(); r++ {
					blk := a.Block(r)
					for i := 0; i < elems; i++ {
						want := float64(r*1_000_000 + i)
						if got := blk.Float64At(i); got != want {
							return fmt.Errorf("rank %d block %d elem %d = %v, want %v", p.Rank(), r, i, got, want)
						}
					}
				}
				return nil
			})
		})
	}
}

// TestSharedLevelViaTuning threads the shared level through
// coll.Tuning (the world's CollConfig): a world configured with
// sharedlevel=socket builds socket-level contexts, and a communicator's
// own tuning wins over the world's.
func TestSharedLevelViaTuning(t *testing.T) {
	tun := coll.Tuning{SharedLevel: "socket"}
	topo := socketTopo(t)
	runHierWorld(t, topo, []mpi.Option{mpi.WithCollConfig(tun)}, func(p *mpi.Proc) error {
		ctx, err := New(p.CommWorld())
		if err != nil {
			return err
		}
		if ctx.node().Size() != 3 {
			return fmt.Errorf("tuning did not select the socket level: size %d", ctx.node().Size())
		}
		ctx2, err := New(atLevel(p.CommWorld(), "node"))
		if err != nil {
			return err
		}
		if ctx2.node().Size() != 6 {
			return fmt.Errorf("explicit node level ignored: size %d", ctx2.node().Size())
		}
		return nil
	})
}

// TestSharedLevelValidation rejects levels the window cannot sit at.
func TestSharedLevelValidation(t *testing.T) {
	topo, err := sim.UniformHier(2,
		sim.LevelDim{Name: "node", Arity: 2},
		sim.LevelDim{Name: "group", Arity: 2})
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(sim.Laptop(), topo, mpi.WithRealData())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(func(p *mpi.Proc) error {
		if _, err := New(atLevel(p.CommWorld(), "group")); err == nil {
			return fmt.Errorf("group-level window accepted (no load/store reachability)")
		}
		if _, err := New(atLevel(p.CommWorld(), "nosuch")); err == nil {
			return fmt.Errorf("unknown level accepted")
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestSocketLevelAllreduce runs the reducing collective at the socket
// level for coverage of the windows-per-group path.
func TestSocketLevelAllreduce(t *testing.T) {
	topo := socketTopo(t)
	const elems = 4
	runHierWorld(t, topo, nil, func(p *mpi.Proc) error {
		ctx, err := New(atLevel(p.CommWorld(), "socket"))
		if err != nil {
			return err
		}
		a, err := ctx.NewAllreducer(elems, mpi.Float64)
		if err != nil {
			return err
		}
		v := make([]float64, elems)
		for i := range v {
			v[i] = float64(p.Rank() + i)
		}
		a.Mine().PutFloat64s(0, v)
		if err := a.Allreduce(mpi.OpSum); err != nil {
			return err
		}
		n := p.Size()
		base := n * (n - 1) / 2
		for i := 0; i < elems; i++ {
			want := float64(base + n*i)
			if got := a.Result().Float64At(i); got != want {
				return fmt.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
			}
		}
		return nil
	})
}
