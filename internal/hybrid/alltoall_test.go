package hybrid

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

func TestHyAlltoall(t *testing.T) {
	for _, shape := range [][]int{{4}, {2, 2}, {3, 3}, {4, 2, 3}} {
		t.Run(fmt.Sprint(shape), func(t *testing.T) {
			n := 0
			for _, s := range shape {
				n += s
			}
			runWorld(t, shape, func(p *mpi.Proc) error {
				ctx, err := New(p.CommWorld())
				if err != nil {
					return err
				}
				a, err := ctx.NewAlltoaller(8)
				if err != nil {
					return err
				}
				// Block for destination d carries 1000*me + d.
				row := a.MineSend()
				for d := 0; d < n; d++ {
					row.PutFloat64(d, float64(1000*p.Rank()+d))
				}
				if err := a.Alltoall(); err != nil {
					return err
				}
				got := a.MineRecv()
				for s := 0; s < n; s++ {
					want := float64(1000*s + p.Rank())
					if v := got.Float64At(s); v != want {
						t.Errorf("rank %d block from %d = %v, want %v", p.Rank(), s, v, want)
						return nil
					}
				}
				return nil
			})
		})
	}
}

func TestHyAlltoallRepeated(t *testing.T) {
	runWorld(t, []int{3, 3}, func(p *mpi.Proc) error {
		ctx, err := New(p.CommWorld())
		if err != nil {
			return err
		}
		a, err := ctx.NewAlltoaller(8)
		if err != nil {
			return err
		}
		for iter := 0; iter < 3; iter++ {
			row := a.MineSend()
			for d := 0; d < 6; d++ {
				row.PutFloat64(d, float64(iter*10000+1000*p.Rank()+d))
			}
			if err := a.Alltoall(); err != nil {
				return err
			}
			got := a.MineRecv()
			bad := ""
			for s := 0; s < 6; s++ {
				want := float64(iter*10000 + 1000*s + p.Rank())
				if v := got.Float64At(s); v != want {
					bad = fmt.Sprintf("iter %d from %d: %v != %v", iter, s, v, want)
					break
				}
			}
			// Epoch fence before the next write round.
			if err := a.ReadFence(); err != nil {
				return err
			}
			if bad != "" {
				return fmt.Errorf("stale alltoall read: %s", bad)
			}
		}
		return nil
	})
}

func TestHyAlltoallValidation(t *testing.T) {
	runWorld(t, []int{2}, func(p *mpi.Proc) error {
		ctx, err := New(p.CommWorld())
		if err != nil {
			return err
		}
		if _, err := ctx.NewAlltoaller(-1); err == nil {
			t.Error("negative block size accepted")
		}
		return nil
	})
}

// TestHyAlltoallWaitsForWriters pins the visibility the on-node pull
// needs: every rank reads every peer's send row, so under the pairwise
// sync flavors an arrival that only tells the leader is not enough.
// Rank r computes r-proportional work before writing its row, so the
// low ranks reach the pull long before the high ranks have written;
// before the epoch core declared "visible to every on-node rank" the
// p2p flavor returned zeros for those blocks (and a data race under
// -race).
func TestHyAlltoallWaitsForWriters(t *testing.T) {
	val := func(epoch, src, dst int) float64 { return float64(epoch*10000 + 100*src + dst + 1) }
	for _, shape := range [][]int{{4}, {3, 3}, {2, 1, 1, 3}} {
		for _, mode := range []SyncMode{SyncBarrier, SyncP2P, SyncSharedFlags} {
			for _, reversed := range []bool{false, true} {
				for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
					t.Run(fmt.Sprintf("%v/%v/reversed=%v/%v", shape, mode, reversed, eng), func(t *testing.T) {
						topo, err := sim.NewTopology(shape)
						if err != nil {
							t.Fatal(err)
						}
						w, err := mpi.NewWorld(sim.Laptop(), topo, mpi.WithRealData(), mpi.WithEngine(eng))
						if err != nil {
							t.Fatal(err)
						}
						defer w.Close()
						err = w.Run(func(p *mpi.Proc) error {
							comm := p.CommWorld()
							if reversed {
								sub, err := comm.Split(0, p.Size()-1-p.Rank())
								if err != nil {
									return err
								}
								comm = sub
							}
							ctx, err := New(comm, WithSync(mode))
							if err != nil {
								return err
							}
							a, err := ctx.NewAlltoaller(8)
							if err != nil {
								return err
							}
							me, n := comm.Rank(), comm.Size()
							rankAt := make([]int, n) // the inverse of SlotOf
							for r := range rankAt {
								rankAt[ctx.SlotOf(r)] = r
							}
							for epoch := 0; epoch < 2; epoch++ {
								p.Compute(float64(1_000_000 * me))
								for slot := 0; slot < n; slot++ {
									a.MineSend().PutFloat64(slot, val(epoch, me, rankAt[slot]))
								}
								if err := a.Alltoall(); err != nil {
									return err
								}
								for slot := 0; slot < n; slot++ {
									src := rankAt[slot]
									if got, want := a.MineRecv().Float64At(slot), val(epoch, src, me); got != want {
										return fmt.Errorf("epoch %d: rank %d from %d got %v want %v", epoch, me, src, got, want)
									}
								}
								if err := a.ReadFence(); err != nil {
									return err
								}
							}
							return nil
						})
						if err != nil {
							t.Fatal(err)
						}
					})
				}
			}
		}
	}
}
