package coll

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

	"repro/internal/mpi"
	"repro/internal/sim"
)

var updateExchanges = flag.Bool("update", false, "rewrite the testdata/*.golden.json files from the current code (say why in the PR)")

// exchPin is one pinned run: the world's makespan in virtual
// picoseconds and a checksum over every rank's result bytes.
type exchPin struct {
	Ps  int64  `json:"ps"`
	Sum string `json:"sum"`
}

// exchArgs is what one golden case hands a variant's body: the payload
// kind decides block sizes and count vectors.
type exchArgs struct {
	kind string // "uniform", "irregular" or "large"
	n    int    // world size
}

// per is the regular forms' block size: tiny, awkward, and beyond every
// profile's eager limit (so the rendezvous protocol is pinned too).
func (a exchArgs) per() int {
	switch a.kind {
	case "uniform":
		return 24
	case "irregular":
		return 104
	}
	return 16 << 10
}

// counts is the v forms' count vector: equal blocks, a ragged vector
// with empty contributions, and ragged blocks straddling the eager
// limit.
func (a exchArgs) counts() []int {
	c := make([]int, a.n)
	for r := range c {
		switch a.kind {
		case "uniform":
			c[r] = 24
		case "irregular":
			c[r] = 8 * ((5*r + 3) % 4)
		default:
			c[r] = 4096 * (1 + r%5)
		}
	}
	return c
}

// elems is the reducing forms' element count: fewer than the
// power-of-two core (Rabenseifner falls back), not divisible by it, and
// a rendezvous-sized vector.
func (a exchArgs) elems() int {
	switch a.kind {
	case "uniform":
		return 3
	case "irregular":
		return 37
	}
	return 2051
}

// bcastBytes is the broadcast payload: divisible by n, smaller than n
// pieces (scatter+allgather's empty tail pieces), and four pipeline
// chunks.
func (a exchArgs) bcastBytes() int {
	switch a.kind {
	case "uniform":
		return 24 * a.n
	case "irregular":
		return 13
	}
	return 100_000
}

// pattern fills a block with bytes that name its owner and position.
func pattern(owner, n int) mpi.Buf {
	b := make([]byte, n)
	for j := range b {
		b[j] = byte(owner*131 + j*7 + 1)
	}
	return mpi.Bytes(b)
}

// nums fills count float64 elements with small integers (sums stay
// exact in any association order).
func nums(owner, count int) mpi.Buf {
	v := make([]float64, count)
	for i := range v {
		v[i] = float64((owner*17+i*3)%29 - 11)
	}
	return mpi.FromFloat64s(v)
}

// exchVariant is one public form under one forced algorithm. body runs
// on every rank and returns the buffer whose bytes join the checksum
// (an empty Buf where the rank holds no result).
type exchVariant struct {
	name  string
	force map[Collective]string
	sizes []int // nil = every size in exchSizes
	topo  func(n int) (*sim.Topology, error)
	body  func(p *mpi.Proc, a exchArgs) (mpi.Buf, error)
}

var exchSizes = []int{1, 2, 5, 8, 12, 16}

// exchShape lays a communicator size over nodes so every size above one
// crosses the network and 5 is irregular.
var exchShape = map[int][]int{1: {1}, 2: {1, 1}, 5: {2, 3}, 8: {4, 4}, 12: {4, 4, 4}, 16: {4, 4, 4, 4}}

// exchGrid is the Cartesian grid of the neighborhood cases (first
// dimension periodic, second not, so ProcNull boundaries are covered).
var exchGrid = map[int][]int{1: {1}, 2: {2}, 5: {5}, 8: {2, 4}, 12: {3, 4}, 16: {4, 4}}

func forced(cl Collective, names ...string) []map[Collective]string {
	out := []map[Collective]string{nil}
	for _, n := range names {
		out = append(out, map[Collective]string{cl: n})
	}
	return out
}

func forceName(f map[Collective]string) string {
	for _, n := range f {
		return n
	}
	return "auto"
}

// placedV returns a recv buffer laid out by displs with this rank's
// block already at its displacement.
func placedV(p *mpi.Proc, counts, displs []int, size int) mpi.Buf {
	recv := mpi.Bytes(make([]byte, size))
	r := p.Rank()
	mpi.CopyData(recv.Slice(displs[r], counts[r]), pattern(r, counts[r]))
	return recv
}

func stride(counts []int) (displs []int, size int) {
	displs = Displs(counts)
	for i := range displs {
		displs[i] += 16 * (i + 1)
	}
	return displs, Total(counts) + 16*(len(counts)+1)
}

func cartOf(p *mpi.Proc) (*mpi.Comm, error) {
	dims := exchGrid[p.Size()]
	return p.CommWorld().CartCreate(dims, []bool{true, false}[:len(dims)], false)
}

func exchVariants() []exchVariant {
	var vs []exchVariant
	add := func(name string, forces []map[Collective]string, body func(p *mpi.Proc, a exchArgs) (mpi.Buf, error)) {
		for _, f := range forces {
			vs = append(vs, exchVariant{name: name + "/" + forceName(f), force: f, body: body})
		}
	}

	add("Allgather", forced(CollAllgather, "ring", "recdbl", "bruck", "neighbor"), func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		recv := mpi.Bytes(make([]byte, a.per()*a.n))
		return recv, Allgather(p.CommWorld(), pattern(p.Rank(), a.per()), recv, a.per())
	})
	add("AllgatherInPlace", forced(CollAllgather, "ring", "recdbl"), func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		recv := mpi.Bytes(make([]byte, a.per()*a.n))
		mpi.CopyData(recv.Slice(p.Rank()*a.per(), a.per()), pattern(p.Rank(), a.per()))
		return recv, AllgatherInPlace(p.CommWorld(), recv, a.per())
	})
	vForces := forced(CollAllgatherv, "ring", "recdbl")
	add("Allgatherv", vForces, func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		counts := a.counts()
		recv := mpi.Bytes(make([]byte, Total(counts)))
		return recv, Allgatherv(p.CommWorld(), pattern(p.Rank(), counts[p.Rank()]), recv, counts)
	})
	add("AllgathervInPlace", vForces, func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		counts := a.counts()
		recv := placedV(p, counts, Displs(counts), Total(counts))
		return recv, AllgathervInPlace(p.CommWorld(), recv, counts)
	})
	add("AllgathervExplicit/prefix", vForces, func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		counts := a.counts()
		recv := placedV(p, counts, Displs(counts), Total(counts))
		return recv, AllgathervExplicit(p.CommWorld(), recv, counts, Displs(counts))
	})
	add("AllgathervExplicit/strided", vForces, func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		counts := a.counts()
		displs, size := stride(counts)
		recv := placedV(p, counts, displs, size)
		return recv, AllgathervExplicit(p.CommWorld(), recv, counts, displs)
	})

	add("Bcast", forced(CollBcast, "binomial", "scag", "pipelined"), func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		root := a.n / 2
		buf := mpi.Bytes(make([]byte, a.bcastBytes()))
		if p.Rank() == root {
			buf = pattern(root, a.bcastBytes())
		}
		return buf, Bcast(p.CommWorld(), buf, root)
	})
	add("Gather", forced(CollGather, "linear", "binomial"), func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		root := a.n / 2
		var recv mpi.Buf
		if p.Rank() == root {
			recv = mpi.Bytes(make([]byte, a.per()*a.n))
		}
		return recv, Gather(p.CommWorld(), pattern(p.Rank(), a.per()), recv, a.per(), root)
	})
	add("Allreduce", forced(CollAllreduce, "recdbl", "rabenseifner"), func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		recv := mpi.Bytes(make([]byte, 8*a.elems()))
		return recv, Allreduce(p.CommWorld(), nums(p.Rank(), a.elems()), recv, a.elems(), mpi.Float64, mpi.OpSum)
	})
	add("Reduce", forced(CollReduce), func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		root := a.n / 2
		var recv mpi.Buf
		if p.Rank() == root {
			recv = mpi.Bytes(make([]byte, 8*a.elems()))
		}
		return recv, Reduce(p.CommWorld(), nums(p.Rank(), a.elems()), recv, a.elems(), mpi.Float64, mpi.OpSum, root)
	})

	// The neighborhood exchange on a Cartesian grid: the selecting
	// entry point and each registered shape forced (their keys predate
	// the forcing: they were per-shape entry points).
	for name, force := range map[string]map[Collective]string{
		"NeighborAlltoall/auto":         nil,
		"NeighborAlltoallPairwise/auto": {CollNeighborAlltoall: "pairwise"},
		"NeighborAlltoallLinear/auto":   {CollNeighborAlltoall: "linear"},
	} {
		vs = append(vs, exchVariant{name: name, force: force, body: func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
			cart, err := cartOf(p)
			if err != nil {
				return mpi.Buf{}, err
			}
			in, out, _ := cart.Neighborhood()
			recv := mpi.Bytes(make([]byte, a.per()*len(in)))
			return recv, NeighborAlltoall(cart, pattern(p.Rank(), a.per()*len(out)), recv, a.per())
		}})
	}

	add("Iallreduce", forced(CollAllreduce), func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		recv := mpi.Bytes(make([]byte, 8*a.elems()))
		s, err := Iallreduce(p.CommWorld(), nums(p.Rank(), a.elems()), recv, a.elems(), mpi.Float64, mpi.OpSum)
		if err != nil {
			return recv, err
		}
		return recv, s.Wait()
	})
	// The composed forms, which reach the shared exchanges through the
	// hierarchy: the two-level baseline, a three-tier stack (the tier
	// gather at absolute offsets) and the multi-leader ablation (the
	// strided ring as its callers lay it out).
	hierAllgather := func(levels ...string) func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		return func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
			h, err := NewHierStack(p.CommWorld(), levels...)
			if err != nil {
				return mpi.Buf{}, err
			}
			recv := mpi.Bytes(make([]byte, a.per()*a.n))
			return recv, h.Allgather(pattern(p.Rank(), a.per()), recv, a.per())
		}
	}
	add("HierAllgather", forced(CollAllgather, "ring", "recdbl"), hierAllgather("node"))
	add("HierBcast", forced(CollBcast), func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
		h, err := NewHier(p.CommWorld())
		if err != nil {
			return mpi.Buf{}, err
		}
		root := a.n / 2
		buf := mpi.Bytes(make([]byte, a.bcastBytes()))
		if p.Rank() == root {
			buf = pattern(root, a.bcastBytes())
		}
		return buf, h.Bcast(buf, root)
	})
	vs = append(vs, exchVariant{
		name: "ComposerAllgather3/auto", sizes: []int{8, 12, 16},
		topo: func(n int) (*sim.Topology, error) {
			switch n {
			case 8:
				return sim.UniformHier(2, sim.LevelDim{Name: "socket", Arity: 2}, sim.LevelDim{Name: "node", Arity: 2})
			case 12:
				return sim.NewHierTopology([]sim.LevelSpec{
					{Name: "socket", Sizes: []int{3, 1, 2, 2, 1, 3}},
					{Name: "node", Sizes: []int{4, 5, 3}},
				})
			}
			return sim.UniformHier(2, sim.LevelDim{Name: "socket", Arity: 2},
				sim.LevelDim{Name: "node", Arity: 2}, sim.LevelDim{Name: "group", Arity: 2})
		},
		body: func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
			levels := []string{"socket", "node"}
			if a.n == 16 {
				levels = append(levels, "group")
			}
			return hierAllgather(levels...)(p, a)
		},
	})
	vs = append(vs, exchVariant{
		name: "MultiLeaderAllgather/auto", sizes: []int{8, 12, 16},
		body: func(p *mpi.Proc, a exchArgs) (mpi.Buf, error) {
			m, err := NewMultiLeaderHier(p.CommWorld(), 3)
			if err != nil {
				return mpi.Buf{}, err
			}
			recv := mpi.Bytes(make([]byte, a.per()*a.n))
			return recv, m.Allgather(pattern(p.Rank(), a.per()), recv, a.per())
		},
	})
	return vs
}

// runExchange runs one golden case on one engine.
func runExchange(v exchVariant, a exchArgs, eng sim.Engine) (exchPin, error) {
	topo, err := sim.NewTopology(exchShape[a.n])
	if v.topo != nil {
		topo, err = v.topo(a.n)
	}
	if err != nil {
		return exchPin{}, err
	}
	w, err := mpi.NewWorld(sim.HazelHenCray(), topo, mpi.WithRealData(), mpi.WithEngine(eng),
		mpi.WithCollConfig(Tuning{Force: v.force}))
	if err != nil {
		return exchPin{}, err
	}
	defer w.Close()
	results := make([][]byte, a.n)
	err = w.Run(func(p *mpi.Proc) error {
		out, err := v.body(p, a)
		results[p.Rank()] = out.Raw()
		return err
	})
	if err != nil {
		return exchPin{}, err
	}
	h := sha256.New()
	for r, b := range results {
		fmt.Fprintf(h, "rank %d: %d bytes\n", r, len(b))
		h.Write(b)
	}
	return exchPin{Ps: int64(w.MaxClock()), Sum: hex.EncodeToString(h.Sum(nil)[:8])}, nil
}

// TestExchangesGolden pins virtual time and payload bytes of every
// public form that runs a ring, doubling, root-gather or binomial
// exchange — regular, in-place, v, strided, nonblocking, neighborhood
// and composed — under every forced algorithm, at power-of-two and
// other communicator sizes, on both engines. The golden was generated
// before those forms were rewritten over one set of step primitives;
// byte identity here is what "the forms are views of one loop" means.
func TestExchangesGolden(t *testing.T) {
	const path = "testdata/exchanges.golden.json"
	got := map[string]exchPin{}
	for _, v := range exchVariants() {
		sizes := v.sizes
		if sizes == nil {
			sizes = exchSizes
		}
		for _, n := range sizes {
			for _, kind := range []string{"uniform", "irregular", "large"} {
				key := fmt.Sprintf("%s/n=%d/%s", v.name, n, kind)
				a := exchArgs{kind: kind, n: n}
				pin, err := runExchange(v, a, sim.EngineGoroutine)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				ev, err := runExchange(v, a, sim.EngineEvent)
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
	lines := make(map[string]string, len(got))
	for key, pin := range got {
		lines[key] = fmt.Sprintf("{\"ps\": %d, \"sum\": %q}", pin.Ps, pin.Sum)
	}
	checkGolden(t, path, lines)
}

// checkGolden compares a golden file with the current cases, each
// already rendered as one JSON value: one case per line, sorted, so a
// drifted pin is a one-line diff. -update rewrites the file first.
func checkGolden(t *testing.T, path string, lines map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(lines))
	for key := range lines {
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
		fmt.Fprintf(&out, " %q: %s%s\n", key, lines[key], sep)
	}
	out.WriteString("}\n")
	if *updateExchanges {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(raw, out.Bytes()) {
		return
	}
	var want map[string]json.RawMessage
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	for key, w := range want {
		if g, ok := lines[key]; !ok {
			t.Errorf("%s: pinned but no longer run", key)
		} else if g != string(w) {
			t.Errorf("%s: got %s, pinned %s", key, g, w)
		}
	}
	for key := range lines {
		if _, ok := want[key]; !ok {
			t.Errorf("%s: run but not pinned (regenerate with -update)", key)
		}
	}
	t.Fatalf("%s is not byte-identical to the current output (regenerate with -update and say why in the PR)", path)
}
