package hybrid

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"repro/internal/coll"
	"repro/internal/mpi"
	"repro/internal/sim"
)

var updateEpochs = flag.Bool("update", false, "rewrite testdata/epochs.golden.json from the current code (say why in the PR)")

// epochPin is one pinned run: the world's makespan in virtual
// picoseconds and a checksum over what every rank could see after each
// of the two epochs.
type epochPin struct {
	Ps  int64  `json:"ps"`
	Sum string `json:"sum"`
}

// epochShape is one world of the golden matrix: flat node sizes, or the
// two-node, two-socket topology with the window at the socket level.
type epochShape struct {
	name  string
	topo  func() (*sim.Topology, error)
	level string
}

func flatShape(sizes ...int) epochShape {
	return epochShape{name: fmt.Sprint(sizes), topo: func() (*sim.Topology, error) { return sim.NewTopology(sizes) }}
}

var epochShapes = []epochShape{
	flatShape(4), flatShape(3, 3), flatShape(1, 3, 2), flatShape(2, 1, 1, 3),
	{name: "2x2x2@socket", level: "socket", topo: func() (*sim.Topology, error) {
		return sim.UniformHier(2, sim.LevelDim{Name: "socket", Arity: 2}, sim.LevelDim{Name: "node", Arity: 2})
	}},
}

// epochRun is what one golden case hands a collective's body.
type epochRun struct {
	ctx  *Ctx
	p    *mpi.Proc
	root int // comm rank; -1 for the collectives without one
	see  func(mpi.Buf)
}

// stagger makes comm rank r arrive r-proportionally late, so the pins
// hold which ranks an epoch's synchronization waits for.
func (e epochRun) stagger() { e.p.Compute(float64(4000 * (e.ctx.comm().Rank() + 1))) }

// fill writes n bytes naming epoch, owner and position.
func fill(b mpi.Buf, epoch, owner int) {
	raw := b.Raw()
	for j := range raw {
		raw[j] = byte(epoch*89 + owner*131 + j*7 + 1)
	}
}

// fillNums writes count small integers (sums stay exact in any order).
func fillNums(b mpi.Buf, epoch, owner, count int) {
	for i := 0; i < count; i++ {
		b.PutFloat64(i, float64((epoch*5+owner*17+i*3)%29-11))
	}
}

// epochCollective is one hybrid collective of the matrix: body builds
// it once and runs two back-to-back epochs, each one staggered write,
// the timed call, a look at the visible result, and the read fence.
type epochCollective struct {
	name   string
	rooted bool
	body   func(e epochRun) error
}

func allgatherEpochs(build func(c *Ctx) (*Allgatherer, error)) func(e epochRun) error {
	return func(e epochRun) error {
		a, err := build(e.ctx)
		if err != nil {
			return err
		}
		for epoch := 0; epoch < 2; epoch++ {
			e.stagger()
			fill(a.Mine(), epoch, e.ctx.comm().Rank())
			if err := a.Allgather(); err != nil {
				return err
			}
			e.see(a.Buffer())
			if err := a.ReadFence(); err != nil {
				return err
			}
		}
		return nil
	}
}

var epochCollectives = []epochCollective{
	{name: "Allgatherer", body: allgatherEpochs(func(c *Ctx) (*Allgatherer, error) { return c.NewAllgatherer(40) })},
	{name: "AllgathererChunked", body: allgatherEpochs(func(c *Ctx) (*Allgatherer, error) {
		return c.NewAllgatherer(1000, WithPipelineChunk(384))
	})},
	{name: "Bcaster", rooted: true, body: func(e epochRun) error {
		b, err := e.ctx.NewBcaster(72)
		if err != nil {
			return err
		}
		for epoch := 0; epoch < 2; epoch++ {
			e.stagger()
			if e.ctx.comm().Rank() == e.root {
				fill(b.Buffer(), epoch, e.root)
			}
			if err := b.Bcast(e.root); err != nil {
				return err
			}
			e.see(b.Buffer())
			if err := b.ReadFence(); err != nil {
				return err
			}
		}
		return nil
	}},
	{name: "Allreducer", body: func(e epochRun) error {
		a, err := e.ctx.NewAllreducer(5, mpi.Float64)
		if err != nil {
			return err
		}
		for epoch := 0; epoch < 2; epoch++ {
			e.stagger()
			fillNums(a.Mine(), epoch, e.ctx.comm().Rank(), 5)
			if err := a.Allreduce(mpi.OpSum); err != nil {
				return err
			}
			e.see(a.Result())
			if err := a.ReadFence(); err != nil {
				return err
			}
		}
		return nil
	}},
	{name: "Alltoaller", body: func(e epochRun) error {
		a, err := e.ctx.NewAlltoaller(16)
		if err != nil {
			return err
		}
		for epoch := 0; epoch < 2; epoch++ {
			e.stagger()
			fill(a.MineSend(), epoch, e.ctx.comm().Rank())
			if err := a.Alltoall(); err != nil {
				return err
			}
			e.see(a.MineRecv())
			if err := a.ReadFence(); err != nil {
				return err
			}
		}
		return nil
	}},
}

// epochPlacements order the communicator the context is built over:
// the world's own order, the world's backwards (node blocks stay
// contiguous, bridge order and leaders change), and dealt round-robin
// over the nodes (slot order differs from rank order, Sect. 6 "Rank
// placement"). Each maps a rank to its Split key.
var epochPlacements = []struct {
	name string
	key  func(p *mpi.Proc) int
}{
	{"smp", nil},
	{"reversed", func(p *mpi.Proc) int { return p.Size() - 1 - p.Rank() }},
	{"roundrobin", func(p *mpi.Proc) int { return localRank(p)*p.Size() + p.Node() }},
}

// localRank is a rank's place on its node: the lower ranks sharing it.
func localRank(p *mpi.Proc) int {
	topo, n := p.World().Topology(), 0
	for r := 0; r < p.Rank(); r++ {
		if topo.SameNode(r, p.Rank()) {
			n++
		}
	}
	return n
}

// runEpochs runs one golden case on one engine.
func runEpochs(cl epochCollective, mode SyncMode, sh epochShape, key func(p *mpi.Proc) int, root int, eng sim.Engine) (epochPin, error) {
	topo, err := sh.topo()
	if err != nil {
		return epochPin{}, err
	}
	w, err := mpi.NewWorld(sim.HazelHenCray(), topo, mpi.WithRealData(), mpi.WithEngine(eng))
	if err != nil {
		return epochPin{}, err
	}
	defer w.Close()
	seen := make([]bytes.Buffer, topo.Size())
	err = w.Run(func(p *mpi.Proc) error {
		comm := p.CommWorld()
		if key != nil {
			sub, err := comm.Split(0, key(p))
			if err != nil {
				return err
			}
			comm = sub
		}
		if sh.level != "" {
			comm = coll.WithTuning(comm, coll.Tuning{SharedLevel: sh.level})
		}
		ctx, err := New(comm, WithSync(mode))
		if err != nil {
			return err
		}
		out := &seen[comm.Rank()]
		return cl.body(epochRun{ctx: ctx, p: p, root: root,
			see: func(b mpi.Buf) {
				fmt.Fprintf(out, "%d bytes\n", b.Len())
				out.Write(b.Raw())
			},
		})
	})
	if err != nil {
		return epochPin{}, err
	}
	h := sha256.New()
	for r := range seen {
		fmt.Fprintf(h, "rank %d: %d bytes\n", r, seen[r].Len())
		h.Write(seen[r].Bytes())
	}
	return epochPin{Ps: int64(w.MaxClock()), Sum: hex.EncodeToString(h.Sum(nil)[:8])}, nil
}

// TestEpochsGolden pins virtual time and every rank's visible result
// for each hybrid collective under each Sect. 6 sync flavor, on
// single-node, regular, irregular and socket-level worlds, SMP,
// reversed and round-robin placement, every root, two back-to-back
// epochs, both engines. The golden was generated before the collectives were
// rewritten as instances of one epoch function; byte identity is what
// "instances of one protocol" means. The Alltoaller rows under the
// pairwise flavors were added by that change: before it the pull read
// peers' rows before they were written (TestHyAlltoallWaitsForWriters).
func TestEpochsGolden(t *testing.T) {
	const path = "testdata/epochs.golden.json"
	got := map[string]epochPin{}
	for _, cl := range epochCollectives {
		for _, mode := range []SyncMode{SyncBarrier, SyncP2P, SyncSharedFlags} {
			for _, sh := range epochShapes {
				topo, err := sh.topo()
				if err != nil {
					t.Fatal(err)
				}
				roots := []int{-1}
				if cl.rooted {
					roots = roots[:0]
					for r := 0; r < topo.Size(); r++ {
						roots = append(roots, r)
					}
				}
				for _, pl := range epochPlacements {
					for _, root := range roots {
						key := fmt.Sprintf("%s/%v/%s/%s", cl.name, mode, sh.name, pl.name)
						if cl.rooted {
							key += fmt.Sprintf("/root=%d", root)
						}
						pin, err := runEpochs(cl, mode, sh, pl.key, root, sim.EngineGoroutine)
						if err != nil {
							t.Fatalf("%s: %v", key, err)
						}
						ev, err := runEpochs(cl, mode, sh, pl.key, root, sim.EngineEvent)
						if err != nil {
							t.Fatalf("%s (event engine): %v", key, err)
						}
						if ev != pin {
							t.Errorf("%s: engines disagree: goroutine %+v, event %+v", key, pin, ev)
						}
						got[key] = pin
					}
				}
			}
		}
	}
	// One case per line, sorted, so a drifted pin is a one-line diff.
	keys := make([]string, 0, len(got))
	for key := range got {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var out bytes.Buffer
	out.WriteString("{\n")
	for i, key := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&out, " %q: {\"ps\": %d, \"sum\": %q}%s\n", key, got[key].Ps, got[key].Sum, sep)
	}
	out.WriteString("}\n")
	enc := out.Bytes()
	if *updateEpochs {
		if err := os.WriteFile(path, enc, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, enc) {
		return
	}
	var want map[string]epochPin
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		if g, ok := got[key]; !ok {
			t.Errorf("%s: pinned but no longer run", key)
		} else if g != w {
			t.Errorf("%s: got %+v, pinned %+v", key, g, w)
		}
	}
	for key := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: run but not pinned (regenerate with -update)", key)
		}
	}
	t.Fatalf("%s is not byte-identical to the current output", path)
}
