package coll

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// fill writes a deterministic, rank-tagged pattern of `elems` doubles.
func fill(rank, elems int) mpi.Buf {
	v := make([]float64, elems)
	for i := range v {
		v[i] = float64(rank*1_000_000 + i)
	}
	return mpi.FromFloat64s(v)
}

// wantBlock checks that recv block r (of elems doubles each) carries
// rank r's pattern.
func checkGathered(t *testing.T, who string, recv mpi.Buf, ranks, elems int) {
	t.Helper()
	for r := 0; r < ranks; r++ {
		for i := 0; i < elems; i += 1 + elems/3 {
			want := float64(r*1_000_000 + i)
			if got := recv.Float64At(r*elems + i); got != want {
				t.Errorf("%s: block %d elem %d = %v, want %v", who, r, i, got, want)
				return
			}
		}
	}
}

func runWorld(t *testing.T, model *sim.CostModel, nodeSizes []int, body func(p *mpi.Proc) error) *mpi.World {
	t.Helper()
	topo, err := sim.NewTopology(nodeSizes)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(model, topo, mpi.WithRealData())
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	return w
}

// allgatherAs is Allgather forced to one registered algorithm; the
// communicator's own tuning is restored afterwards.
func allgatherAs(alg string) func(*mpi.Comm, mpi.Buf, mpi.Buf, int) error {
	forced := Tuning{Force: map[Collective]string{CollAllgather: alg}}
	return func(c *mpi.Comm, send, recv mpi.Buf, per int) error {
		prev := c.CollConfig()
		defer c.SetCollConfig(prev)
		return Allgather(WithTuning(c, forced), send, recv, per)
	}
}

func TestAllgatherAlgorithmsCorrect(t *testing.T) {
	algos := map[string]func(*mpi.Comm, mpi.Buf, mpi.Buf, int) error{
		"ring":   allgatherAs("ring"),
		"recdbl": allgatherAs("recdbl"),
		"bruck":  allgatherAs("bruck"),
		"auto":   Allgather,
	}
	for name, fn := range algos {
		for _, shape := range [][]int{{4, 4}, {2, 2, 2, 2}, {8}} {
			n := 0
			for _, s := range shape {
				n += s
			}
			t.Run(fmt.Sprintf("%s/%v", name, shape), func(t *testing.T) {
				const elems = 17
				runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
					c := p.CommWorld()
					recv := mpi.Bytes(make([]byte, 8*elems*n))
					if err := fn(c, fill(p.Rank(), elems), recv, 8*elems); err != nil {
						return err
					}
					checkGathered(t, name, recv, n, elems)
					return nil
				})
			})
		}
	}
}

func TestAllgatherBruckNonPow2(t *testing.T) {
	for _, n := range []int{3, 5, 6, 7} {
		t.Run(fmt.Sprint(n), func(t *testing.T) {
			const elems = 5
			runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
				c := p.CommWorld()
				recv := mpi.Bytes(make([]byte, 8*elems*n))
				if err := allgatherBruck(c, fill(p.Rank(), elems), recv, 8*elems); err != nil {
					return err
				}
				checkGathered(t, "bruck", recv, n, elems)
				return nil
			})
		})
	}
}

func TestAllgatherArgValidation(t *testing.T) {
	runWorld(t, sim.Laptop(), []int{2}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		if err := Allgather(c, mpi.Sized(4), mpi.Sized(16), 8); err == nil {
			t.Error("short send buffer accepted")
		}
		if err := Allgather(c, mpi.Sized(8), mpi.Sized(8), 8); err == nil {
			t.Error("short recv buffer accepted")
		}
		if err := Allgather(c, mpi.Sized(8), mpi.Sized(16), -1); err == nil {
			t.Error("negative block accepted")
		}
		if err := Allgather(nil, mpi.Sized(8), mpi.Sized(16), 8); err == nil {
			t.Error("nil comm accepted")
		}
		return nil
	})
}

func TestAllgathervCorrect(t *testing.T) {
	// Irregular block sizes, including an empty contribution.
	for _, variant := range []string{"ring", "recdbl", "auto"} {
		t.Run(variant, func(t *testing.T) {
			shape := []int{2, 2} // 4 ranks (pow2 so recdbl is reachable)
			counts := []int{3 * 8, 0, 5 * 8, 1 * 8}
			total := Total(counts)
			runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
				c := p.CommWorld()
				recv := mpi.Bytes(make([]byte, total))
				displs := Displs(counts)
				// Place own block (in-place semantics).
				mine := fill(p.Rank(), counts[p.Rank()]/8)
				p.CopyLocal(recv.Slice(displs[p.Rank()], counts[p.Rank()]), mine, 1)
				v := blocks{buf: recv, counts: counts, displs: displs}
				fam := family{name: "allgatherv", tag: tagAllgatherv}
				var err error
				switch variant {
				case "ring":
					err = allgatherRing(c, v, fam)
				case "recdbl":
					err = allgatherRecDbl(c, v, fam)
				default:
					err = AllgathervInPlace(c, recv, counts)
				}
				if err != nil {
					return err
				}
				for r := 0; r < 4; r++ {
					for i := 0; i < counts[r]/8; i++ {
						want := float64(r*1_000_000 + i)
						if got := recv.Float64At(displs[r]/8 + i); got != want {
							t.Errorf("rank %d block %d elem %d = %v, want %v", p.Rank(), r, i, got, want)
							return nil
						}
					}
				}
				return nil
			})
		})
	}
}

func TestAllgathervSendCopyVariant(t *testing.T) {
	counts := []int{8, 16}
	runWorld(t, sim.Laptop(), []int{2}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		recv := mpi.Bytes(make([]byte, 24))
		send := fill(p.Rank(), counts[p.Rank()]/8)
		if err := Allgatherv(c, send, recv, counts); err != nil {
			return err
		}
		if recv.Float64At(0) != 0 || recv.Float64At(1) != 1_000_000 || recv.Float64At(2) != 1_000_001 {
			t.Errorf("allgatherv copy variant wrong: %v", recv.Float64s())
		}
		return nil
	})
}

func TestAllgathervValidation(t *testing.T) {
	runWorld(t, sim.Laptop(), []int{2}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		if err := AllgathervInPlace(c, mpi.Sized(8), []int{8}); err == nil {
			t.Error("wrong count vector length accepted")
		}
		if err := AllgathervInPlace(c, mpi.Sized(8), []int{8, -8}); err == nil {
			t.Error("negative count accepted")
		}
		if err := AllgathervInPlace(c, mpi.Sized(8), []int{8, 8}); err == nil {
			t.Error("short recv accepted")
		}
		if err := AllgathervExplicit(c, mpi.Sized(16), []int{8, 8}, []int{0}); err == nil {
			t.Error("wrong displs length accepted")
		}
		return nil
	})
}

func TestAllgathervExplicitStridedLayout(t *testing.T) {
	// Blocks at non-prefix displacements: rank r's block at r*16,
	// 8 bytes each, 8 bytes of padding between.
	runWorld(t, sim.Laptop(), []int{2, 2}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		recv := mpi.Bytes(make([]byte, 4*16))
		counts := []int{8, 8, 8, 8}
		displs := []int{0, 16, 32, 48}
		recv.PutFloat64(p.Rank()*2, float64(100+p.Rank()))
		if err := AllgathervExplicit(c, recv, counts, displs); err != nil {
			return err
		}
		for r := 0; r < 4; r++ {
			if got := recv.Float64At(r * 2); got != float64(100+r) {
				t.Errorf("strided block %d = %v", r, got)
			}
		}
		return nil
	})
}

// TestAllgathervExplicitValidatesStridedLayout: a bad strided layout is
// refused on every member before a byte moves, exactly like a bad
// prefix layout — not discovered mid-ring as a Buf.Slice panic on the
// first rank to reach the block, with every other rank aborted.
func TestAllgathervExplicitValidatesStridedLayout(t *testing.T) {
	cases := []struct {
		name           string
		counts, displs []int
		want           string
	}{
		{"block past the buffer", []int{8, 8, 8, 8}, []int{0, 16, 32, 60}, "block 3"},
		{"negative count", []int{8, -8, 8, 8}, []int{0, 16, 32, 48}, "count[1]"},
		{"negative displacement", []int{8, 8, 8, 8}, []int{0, -16, 32, 48}, "block 1"},
	}
	for _, tc := range cases {
		for _, eng := range []sim.Engine{sim.EngineGoroutine, sim.EngineEvent} {
			t.Run(fmt.Sprintf("%s/%v", tc.name, eng), func(t *testing.T) {
				w, err := mpi.NewWorld(sim.Laptop(), sim.MustUniform(2, 2), mpi.WithRealData(), mpi.WithEngine(eng))
				if err != nil {
					t.Fatal(err)
				}
				defer w.Close()
				errs := make([]error, 4)
				if err := w.Run(func(p *mpi.Proc) error {
					errs[p.Rank()] = AllgathervExplicit(p.CommWorld(), mpi.Bytes(make([]byte, 64)), tc.counts, tc.displs)
					return nil
				}); err != nil {
					t.Fatalf("Run: %v", err)
				}
				for r, err := range errs {
					switch {
					case err == nil:
						t.Errorf("rank %d accepted the layout", r)
					case errors.Is(err, mpi.ErrAborted):
						t.Errorf("rank %d was aborted instead of refusing the call: %v", r, err)
					case !strings.HasPrefix(err.Error(), "coll: ") || !strings.Contains(err.Error(), tc.want):
						t.Errorf("rank %d: %q is not a coll: validation error naming %s", r, err, tc.want)
					}
				}
			})
		}
	}
}

func TestBcastAlgorithmsCorrect(t *testing.T) {
	algos := map[string]func(*mpi.Comm, mpi.Buf, int) error{
		"binomial": BcastBinomial,
		"scag":     BcastScatterAllgather,
		"auto":     Bcast,
		"pipeline": func(c *mpi.Comm, b mpi.Buf, root int) error {
			return BcastPipelined(c, b, root, 64)
		},
	}
	for name, fn := range algos {
		for _, n := range []int{2, 5, 8} {
			for _, root := range []int{0, 1, n - 1} {
				t.Run(fmt.Sprintf("%s/n%d/root%d", name, n, root), func(t *testing.T) {
					const elems = 33
					runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
						c := p.CommWorld()
						var buf mpi.Buf
						if p.Rank() == root {
							buf = fill(root, elems)
						} else {
							buf = mpi.Bytes(make([]byte, 8*elems))
						}
						if err := fn(c, buf, root); err != nil {
							return err
						}
						for i := 0; i < elems; i++ {
							want := float64(root*1_000_000 + i)
							if got := buf.Float64At(i); got != want {
								t.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
								return nil
							}
						}
						return nil
					})
				})
			}
		}
	}
}

func TestBcastLargeTriggersNonBinomialPaths(t *testing.T) {
	// A payload above PipelineMin must still broadcast correctly
	// through the auto selector.
	model := sim.Laptop()
	elems := model.Tuning.BcastPipelineMin/8 + 100
	runWorld(t, model, []int{3, 3}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		var buf mpi.Buf
		if p.Rank() == 0 {
			buf = fill(0, elems)
		} else {
			buf = mpi.Bytes(make([]byte, 8*elems))
		}
		if err := Bcast(c, buf, 0); err != nil {
			return err
		}
		for _, i := range []int{0, elems / 2, elems - 1} {
			if got := buf.Float64At(i); got != float64(i) {
				t.Errorf("rank %d elem %d = %v", p.Rank(), i, got)
			}
		}
		return nil
	})
}

func TestBcastValidation(t *testing.T) {
	runWorld(t, sim.Laptop(), []int{2}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		if err := Bcast(c, mpi.Sized(8), 5); err == nil {
			t.Error("bad root accepted")
		}
		if err := Bcast(nil, mpi.Sized(8), 0); err == nil {
			t.Error("nil comm accepted")
		}
		return nil
	})
}

func TestGatherVariants(t *testing.T) {
	for _, variant := range []string{"linear", "binomial", "auto"} {
		for _, n := range []int{2, 5, 8} {
			for _, root := range []int{0, n - 1} {
				t.Run(fmt.Sprintf("%s/n%d/root%d", variant, n, root), func(t *testing.T) {
					const elems = 7
					runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
						c := p.CommWorld()
						recv := mpi.Buf{}
						if p.Rank() == root {
							recv = mpi.Bytes(make([]byte, 8*elems*n))
						}
						var err error
						switch variant {
						case "linear":
							err = GatherLinear(c, fill(p.Rank(), elems), recv, 8*elems, root)
						case "binomial":
							err = GatherBinomial(c, fill(p.Rank(), elems), recv, 8*elems, root)
						default:
							err = Gather(c, fill(p.Rank(), elems), recv, 8*elems, root)
						}
						if err != nil {
							return err
						}
						if p.Rank() == root {
							checkGathered(t, variant, recv, n, elems)
						}
						return nil
					})
				})
			}
		}
	}
}

func TestGatherv(t *testing.T) {
	counts := []int{16, 0, 8, 24}
	runWorld(t, sim.Laptop(), []int{4}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		recv := mpi.Buf{}
		if p.Rank() == 2 {
			recv = mpi.Bytes(make([]byte, Total(counts)))
		}
		send := fill(p.Rank(), counts[p.Rank()]/8)
		if err := Gatherv(c, send, recv, counts, 2); err != nil {
			return err
		}
		if p.Rank() == 2 {
			displs := Displs(counts)
			for r := range counts {
				for i := 0; i < counts[r]/8; i++ {
					want := float64(r*1_000_000 + i)
					if got := recv.Float64At(displs[r]/8 + i); got != want {
						t.Errorf("gatherv block %d elem %d = %v", r, i, got)
					}
				}
			}
		}
		return nil
	})
}

func TestScatter(t *testing.T) {
	for _, n := range []int{2, 5, 8} {
		for _, root := range []int{0, n / 2} {
			t.Run(fmt.Sprintf("n%d/root%d", n, root), func(t *testing.T) {
				const elems = 3
				runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
					c := p.CommWorld()
					var send mpi.Buf
					if p.Rank() == root {
						v := make([]float64, elems*n)
						for r := 0; r < n; r++ {
							for i := 0; i < elems; i++ {
								v[r*elems+i] = float64(r*1_000_000 + i)
							}
						}
						send = mpi.FromFloat64s(v)
					}
					recv := mpi.Bytes(make([]byte, 8*elems))
					if err := Scatter(c, send, recv, 8*elems, root); err != nil {
						return err
					}
					for i := 0; i < elems; i++ {
						want := float64(p.Rank()*1_000_000 + i)
						if got := recv.Float64At(i); got != want {
							t.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
						}
					}
					return nil
				})
			})
		}
	}
}

func TestReduceAndAllreduce(t *testing.T) {
	for _, n := range []int{2, 3, 4, 7, 8} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			const elems = 9
			runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
				c := p.CommWorld()
				// Element i of rank r is r+i; the sum over ranks
				// is n*i + n(n-1)/2.
				v := make([]float64, elems)
				for i := range v {
					v[i] = float64(p.Rank() + i)
				}
				send := mpi.FromFloat64s(v)

				recv := mpi.Bytes(make([]byte, 8*elems))
				if err := Reduce(c, send, recv, elems, mpi.Float64, mpi.OpSum, 0); err != nil {
					return err
				}
				if p.Rank() == 0 {
					for i := 0; i < elems; i++ {
						want := float64(n*i + n*(n-1)/2)
						if got := recv.Float64At(i); got != want {
							t.Errorf("reduce elem %d = %v, want %v", i, got, want)
						}
					}
				}

				all := mpi.Bytes(make([]byte, 8*elems))
				if err := Allreduce(c, send, all, elems, mpi.Float64, mpi.OpSum); err != nil {
					return err
				}
				for i := 0; i < elems; i++ {
					want := float64(n*i + n*(n-1)/2)
					if got := all.Float64At(i); got != want {
						t.Errorf("allreduce elem %d = %v, want %v", i, got, want)
					}
				}
				return nil
			})
		})
	}
}

func TestAllreduceRabenseifnerLarge(t *testing.T) {
	for _, n := range []int{4, 6, 8} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			const elems = 1024 // big enough for the selector to pick Rabenseifner
			runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
				c := p.CommWorld()
				v := make([]float64, elems)
				for i := range v {
					v[i] = float64(p.Rank()*elems + i)
				}
				recv := mpi.Bytes(make([]byte, 8*elems))
				if err := AllreduceRabenseifner(c, mpi.FromFloat64s(v), recv, elems, mpi.Float64, mpi.OpSum); err != nil {
					return err
				}
				for _, i := range []int{0, 1, elems / 2, elems - 1} {
					want := 0.0
					for r := 0; r < n; r++ {
						want += float64(r*elems + i)
					}
					if got := recv.Float64At(i); got != want {
						t.Errorf("rank %d elem %d = %v, want %v", p.Rank(), i, got, want)
						return nil
					}
				}
				return nil
			})
		})
	}
}

func TestAllreduceMaxMin(t *testing.T) {
	runWorld(t, sim.Laptop(), []int{5}, func(p *mpi.Proc) error {
		c := p.CommWorld()
		send := mpi.FromFloat64s([]float64{float64(p.Rank())})
		recv := mpi.Bytes(make([]byte, 8))
		if err := Allreduce(c, send, recv, 1, mpi.Float64, mpi.OpMax); err != nil {
			return err
		}
		if recv.Float64At(0) != 4 {
			t.Errorf("max = %v", recv.Float64At(0))
		}
		if err := Allreduce(c, send, recv, 1, mpi.Float64, mpi.OpMin); err != nil {
			return err
		}
		if recv.Float64At(0) != 0 {
			t.Errorf("min = %v", recv.Float64At(0))
		}
		return nil
	})
}

func TestAlltoall(t *testing.T) {
	for _, n := range []int{2, 4, 5} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			runWorld(t, sim.Laptop(), []int{n}, func(p *mpi.Proc) error {
				c := p.CommWorld()
				// send block j carries value 1000*me + j
				v := make([]float64, n)
				for j := range v {
					v[j] = float64(1000*p.Rank() + j)
				}
				send := mpi.FromFloat64s(v)
				recv := mpi.Bytes(make([]byte, 8*n))
				if err := Alltoall(c, send, recv, 8); err != nil {
					return err
				}
				for i := 0; i < n; i++ {
					want := float64(1000*i + p.Rank())
					if got := recv.Float64At(i); got != want {
						t.Errorf("rank %d block %d = %v, want %v", p.Rank(), i, got, want)
					}
				}
				return nil
			})
		})
	}
}

func TestBarrierCentral(t *testing.T) {
	left := make([]sim.Time, 4)
	runWorld(t, sim.Laptop(), []int{2, 2}, func(p *mpi.Proc) error {
		p.Elapse(sim.Time(p.Rank()) * sim.Millisecond)
		err := barrierCentral(p.CommWorld())
		left[p.Rank()] = p.Clock()
		return err
	})
	for r, at := range left {
		if at < 3*sim.Millisecond {
			t.Errorf("rank %d left central barrier early at %v", r, at)
		}
	}
}

func TestHierAllgatherCorrect(t *testing.T) {
	for _, shape := range [][]int{{4}, {2, 2}, {3, 3, 3}, {4, 4, 2}} {
		t.Run(fmt.Sprint(shape), func(t *testing.T) {
			n := 0
			for _, s := range shape {
				n += s
			}
			const elems = 11
			runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
				c := p.CommWorld()
				h, err := NewHier(c)
				if err != nil {
					return err
				}
				recv := mpi.Bytes(make([]byte, 8*elems*n))
				if err := h.Allgather(fill(p.Rank(), elems), recv, 8*elems); err != nil {
					return err
				}
				checkGathered(t, "hier", recv, n, elems)
				return nil
			})
		})
	}
}

func TestHierBcastCorrect(t *testing.T) {
	for _, root := range []int{0, 1, 5} {
		t.Run(fmt.Sprintf("root%d", root), func(t *testing.T) {
			const elems = 19
			runWorld(t, sim.Laptop(), []int{3, 3}, func(p *mpi.Proc) error {
				c := p.CommWorld()
				h, err := NewHier(c)
				if err != nil {
					return err
				}
				var buf mpi.Buf
				if p.Rank() == root {
					buf = fill(root, elems)
				} else {
					buf = mpi.Bytes(make([]byte, 8*elems))
				}
				if err := h.Bcast(buf, root); err != nil {
					return err
				}
				for i := 0; i < elems; i++ {
					want := float64(root*1_000_000 + i)
					if got := buf.Float64At(i); got != want {
						t.Errorf("rank %d elem %d = %v", p.Rank(), i, got)
						return nil
					}
				}
				return nil
			})
		})
	}
}

func TestHierLeaderStructure(t *testing.T) {
	runWorld(t, sim.Laptop(), []int{3, 2}, func(p *mpi.Proc) error {
		k, err := NewHier(p.CommWorld())
		if err != nil {
			return err
		}
		if k.Groups(0) != 2 {
			t.Errorf("nodes = %d", k.Groups(0))
		}
		wantLeader := p.Rank() == 0 || p.Rank() == 3
		if leader := k.Tier(0).Rank() == 0; leader != wantLeader {
			t.Errorf("rank %d leads its node: %v", p.Rank(), leader)
		}
		if wantLeader && k.Top() == nil {
			t.Errorf("leader %d has no bridge", p.Rank())
		}
		if !wantLeader && k.Top() != nil {
			t.Errorf("child %d has a bridge", p.Rank())
		}
		if got := k.GroupSizes(0); got[0] != 3 || got[1] != 2 {
			t.Errorf("node counts = %v", got)
		}
		return nil
	})
}

func TestDispls(t *testing.T) {
	d := Displs([]int{3, 0, 5})
	if d[0] != 0 || d[1] != 3 || d[2] != 3 {
		t.Errorf("Displs = %v", d)
	}
	if Total([]int{1, 2, 3}) != 6 {
		t.Error("Total broken")
	}
	if !isPow2(8) || isPow2(6) || isPow2(0) {
		t.Error("isPow2 broken")
	}
}

// Timing-shape assertions: these lock in the relative behaviours the
// figures depend on.

func latencyOf(t *testing.T, model *sim.CostModel, shape []int, body func(p *mpi.Proc) error) sim.Time {
	t.Helper()
	topo, err := sim.NewTopology(shape)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(model, topo) // size-only
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Run(body); err != nil {
		t.Fatal(err)
	}
	return w.MaxClock()
}

func TestRingSlowerThanRecDblForSmall(t *testing.T) {
	w := sizedWorld(t, sim.HazelHenCray(), []int{1, 1, 1, 1, 1, 1, 1, 1}) // 8 nodes x 1 rank
	small := 64
	laps, err := Race(w, CollAllgather, Env{Size: 8, Bytes: small}, func(c *mpi.Comm) error {
		return Allgather(c, mpi.Sized(small), mpi.Sized(8*small), small)
	})
	if err != nil {
		t.Fatal(err)
	}
	lat := map[string]sim.Time{}
	for _, l := range laps {
		lat[l.Name] = l.Time
	}
	if lat["recdbl"] >= lat["ring"] {
		t.Errorf("recursive doubling (%v) should beat ring (%v) for small messages", lat["recdbl"], lat["ring"])
	}
}

func TestAllgathervSlowerThanAllgather(t *testing.T) {
	// The Fig. 8 mechanism: with one rank per node, the hybrid
	// approach degenerates to MPI_Allgatherv vs MPI_Allgather, and
	// the v variant must be slightly slower.
	model := sim.VulcanOpenMPI()
	for _, nodes := range []int{4, 16} {
		shape := make([]int, nodes)
		for i := range shape {
			shape[i] = 1
		}
		per := 8 * 64
		counts := make([]int, nodes)
		for i := range counts {
			counts[i] = per
		}
		ag := latencyOf(t, model, shape, func(p *mpi.Proc) error {
			return Allgather(p.CommWorld(), mpi.Sized(per), mpi.Sized(per*nodes), per)
		})
		agv := latencyOf(t, model, shape, func(p *mpi.Proc) error {
			return AllgathervInPlace(p.CommWorld(), mpi.Sized(per*nodes), counts)
		})
		if agv <= ag {
			t.Errorf("%d nodes: allgatherv (%v) should be slower than allgather (%v)", nodes, agv, ag)
		}
	}
}

func TestPipelineBeatsBinomialForHuge(t *testing.T) {
	model := sim.HazelHenCray()
	shape := []int{1, 1, 1, 1, 1, 1, 1, 1}
	big := 4 << 20
	bin := latencyOf(t, model, shape, func(p *mpi.Proc) error {
		return BcastBinomial(p.CommWorld(), mpi.Sized(big), 0)
	})
	pipe := latencyOf(t, model, shape, func(p *mpi.Proc) error {
		return BcastPipelined(p.CommWorld(), mpi.Sized(big), 0, model.Tuning.BcastChunk)
	})
	if pipe >= bin {
		t.Errorf("pipeline (%v) should beat binomial (%v) for huge broadcasts", pipe, bin)
	}
}

func TestCollectiveTimingDeterministic(t *testing.T) {
	model := sim.HazelHenCray()
	shape := []int{6, 6, 6}
	run := func() sim.Time {
		return latencyOf(t, model, shape, func(p *mpi.Proc) error {
			h, err := NewHier(p.CommWorld())
			if err != nil {
				return err
			}
			recv := mpi.Sized(1024 * 18)
			for i := 0; i < 3; i++ {
				if err := h.Allgather(mpi.Sized(1024), recv, 1024); err != nil {
					return err
				}
			}
			return nil
		})
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("hier allgather latency differs across runs: %v vs %v", a, b)
	}
}

// Gatherv and Scatter are not collectives the package ships (no
// workload roots an irregular gather or a scatter): they live here, over
// the shared root-gather exchange and the binomial-tree helpers, for the
// tests above.

const tagScatter = 1<<25 + 32

// Gatherv collects variable-size blocks at root (counts in comm rank
// order), linearly — the irregular gather real libraries run for modest
// sizes.
func Gatherv(c *mpi.Comm, send, recv mpi.Buf, counts []int, root int) error {
	if err := checkRootArgs(c, root); err != nil {
		return err
	}
	if len(counts) != c.Size() {
		return fmt.Errorf("coll: gatherv got %d counts for %d ranks", len(counts), c.Size())
	}
	// Only the root needs (and validates) the gathered layout.
	var v blocks
	if c.Rank() == root {
		if recv.Len() < Total(counts) {
			return fmt.Errorf("coll: gatherv recv buffer %dB < %dB", recv.Len(), Total(counts))
		}
		v = blocks{buf: recv, counts: counts, displs: Displs(counts)}
		c.Proc().CopyLocal(v.at(root), send.Slice(0, counts[root]), 1)
	}
	return gatherAtRoot(c, send.Slice(0, counts[c.Rank()]), v, root, family{name: "gatherv", tag: tagGather})
}

// Scatter distributes root's per-rank blocks with a binomial tree
// (reverse of GatherBinomial): interior nodes receive their subtree's
// range and forward the halves.
func Scatter(c *mpi.Comm, send, recv mpi.Buf, per, root int) error {
	if err := checkRootArgs(c, root); err != nil {
		return err
	}
	n := c.Size()
	p := c.Proc()
	if c.Rank() == root && send.Len() < per*n {
		return fmt.Errorf("coll: scatter send buffer %dB < %d x %dB", send.Len(), n, per)
	}
	if n == 1 {
		p.CopyLocal(recv.Slice(0, per), send.Slice(root*per, per), 1)
		return nil
	}
	rel := (c.Rank() - root + n) % n

	tmp := p.World().NewBuf(subtreeSpan(rel, n) * per)
	have := 0
	mask := binomialParent(rel, n)
	if rel == 0 {
		// Rotate into relative order once (charged), like MPICH's
		// root-side pack.
		for i := 0; i < n; i++ {
			p.CopyLocal(tmp.Slice(i*per, per), send.Slice(((i+root)%n)*per, per), 1)
		}
		have = n
	} else {
		parent := (rel - mask + root) % n
		have = subtreeSpan(rel, n)
		if _, err := c.Recv(tmp.Slice(0, have*per), parent, tagScatter); err != nil {
			return fmt.Errorf("coll: scatter recv: %w", err)
		}
	}

	// Forward the upper halves to children, largest first.
	for mask >>= 1; mask > 0; mask >>= 1 {
		if rel+mask < n {
			cnt := min(subtreeSpan(rel+mask, n), mask, have-mask)
			if cnt > 0 {
				child := (rel + mask + root) % n
				if err := c.Send(tmp.Slice(mask*per, cnt*per), child, tagScatter); err != nil {
					return fmt.Errorf("coll: scatter send: %w", err)
				}
				have = mask
			}
		}
	}
	p.CopyLocal(recv.Slice(0, per), tmp.Slice(0, per), 1)
	return nil
}
