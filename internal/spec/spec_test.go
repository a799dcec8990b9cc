package spec_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/coll"
	"repro/internal/sim"
	"repro/internal/spec"
)

func TestParseTuningGrammar(t *testing.T) {
	tun, err := spec.ParseTuning("policy=cost, allreduce=rabenseifner ,barrier=central")
	if err != nil {
		t.Fatal(err)
	}
	if tun.Policy != "cost" {
		t.Errorf("policy = %q", tun.Policy)
	}
	if tun.Force["allreduce"] != "rabenseifner" || tun.Force["barrier"] != "central" {
		t.Errorf("force map = %v", tun.Force)
	}
	if tun, err := spec.ParseTuning(""); err != nil || tun.Policy != "table" || tun.Force != nil {
		t.Errorf("empty spec: %+v %v", tun, err)
	}
	for _, bad := range []string{
		"policy=fast", "allgather=quantum", "warp=9", "nokey", "sharedlevel=",
		// An empty policy and a repeated key are text Spec never renders.
		"policy=", "policy=cost,policy=table", "allreduce=recdbl,allreduce=rabenseifner",
	} {
		if _, err := spec.ParseTuning(bad); err == nil {
			t.Errorf("ParseTuning(%q) accepted", bad)
		}
	}
	// The JSON form is not the grammar: there an empty policy is the
	// Query default, table.
	q, err := spec.Parse([]byte(strings.Replace(pointQuery, `"policy": "cost"`, `"policy": ""`, 1)))
	if err != nil {
		t.Errorf(`"policy": "" in a query: %v`, err)
	} else if q.Tuning.Policy != "table" {
		t.Errorf(`"policy": "" in a query canonicalized to %q, want "table"`, q.Tuning.Policy)
	}
	// A family the registry no longer has is rejected exactly like a
	// misspelt one: with coll.ParseCollective's error.
	for _, gone := range []string{"warp=9", "neighborallgather=linear", "neighboralltoall=pairwise", "neighboralltoallv=pairwise"} {
		name, _, _ := strings.Cut(gone, "=")
		_, want := coll.ParseCollective(name)
		if _, err := spec.ParseTuning(gone); err == nil || want == nil || !strings.Contains(err.Error(), want.Error()) {
			t.Errorf("ParseTuning(%q) = %v, want it to wrap %v", gone, err, want)
		}
	}
}

// TestTuningRoundTrip is the re-homing guarantee: parse -> render ->
// parse is the identity, and the rendered form is canonical.
func TestTuningRoundTrip(t *testing.T) {
	for _, s := range []string{
		"",
		"policy=table",
		"policy=cost",
		"policy=cost,allreduce=rabenseifner,barrier=central",
		"policy=measured",
		"policy=measured,allreduce=recdbl",
		"sharedlevel=socket,gather=linear,scan=linear",
		"bcast=binomial,policy=cost,sharedlevel=numa",
		"allgather=hybrid,sharedlevel=socket",
	} {
		tun, err := spec.ParseTuning(s)
		if err != nil {
			t.Fatalf("ParseTuning(%q): %v", s, err)
		}
		rendered := tun.Spec()
		again, err := spec.ParseTuning(rendered)
		if err != nil {
			t.Fatalf("ParseTuning(render(%q) = %q): %v", s, rendered, err)
		}
		if again.Spec() != rendered {
			t.Errorf("round trip of %q: %q != %q", s, again.Spec(), rendered)
		}
	}
}

// TestQueryForceMovesAnswer: a force written into the query reaches
// the world the query builds and moves the 8x8 allreduce's virtual time.
func TestQueryForceMovesAnswer(t *testing.T) {
	const base = `{"machine":"hazelhen-cray","topology":{"nodes":8,"ppn":8},"collective":"allreduce","sizes":[65536],"engine":"event"`
	virtualPs := func(js string) int64 {
		t.Helper()
		q, err := spec.Parse([]byte(js))
		if err != nil {
			t.Fatal(err)
		}
		res, err := spec.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		return res.Points[0].VirtualPs
	}
	clean := virtualPs(base + `}`)
	if forced := virtualPs(base + `,"tuning":{"force":{"allreduce":"recdbl"}}}`); forced == clean {
		t.Errorf("the query's own force left the answer at %d ps", forced)
	}
}

// TestTuningCollConversion checks the declarative -> runtime
// conversion.
func TestTuningCollConversion(t *testing.T) {
	tun, err := spec.ParseTuning("policy=cost,allreduce=rabenseifner,sharedlevel=socket")
	if err != nil {
		t.Fatal(err)
	}
	ct, err := tun.Coll()
	if err != nil {
		t.Fatal(err)
	}
	if ct.Policy != coll.PolicyCost || ct.Force[coll.CollAllreduce] != "rabenseifner" || ct.SharedLevel != "socket" {
		t.Fatalf("converted %+v", ct)
	}
	// The hybrid scheme is no coll algorithm: runOps selects it, the
	// selection engine never sees it.
	ht, err := spec.ParseTuning("allgather=hybrid,allreduce=recdbl")
	if err != nil {
		t.Fatal(err)
	}
	hct, err := ht.Coll()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := hct.Force[coll.CollAllgather]; ok || hct.Force[coll.CollAllreduce] != "recdbl" {
		t.Fatalf("allgather=hybrid,allreduce=recdbl converted to force %v", hct.Force)
	}
	mt, err := spec.ParseTuning("policy=measured")
	if err != nil {
		t.Fatal(err)
	}
	mct, err := mt.Coll()
	if err != nil {
		t.Fatal(err)
	}
	if mct.Policy != coll.PolicyMeasured {
		t.Fatalf("measured converted to %v", mct.Policy)
	}
}

func FuzzParseTuning(f *testing.F) {
	f.Add("policy=cost,allreduce=rabenseifner")
	f.Add("sharedlevel=socket")
	f.Add("policy=table,barrier=central,bcast=binomial")
	f.Add("")
	f.Add("warp=9")
	f.Add("neighborallgather=linear")
	f.Add("neighboralltoallv=pairwise")
	f.Add("policy=measured")
	f.Add("policy=measured,allreduce=recdbl,sharedlevel=numa")
	f.Add("policy=measured,store=ignored")
	f.Add("policy=")
	f.Add("policy=cost,policy=table")
	f.Add("allreduce=recdbl,allreduce=rabenseifner")
	f.Add("allgather=hybrid,sharedlevel=socket")
	f.Add("bcast=hybrid")
	f.Fuzz(func(t *testing.T, s string) {
		tun, err := spec.ParseTuning(s)
		if err != nil {
			return
		}
		rendered := tun.Spec()
		again, err := spec.ParseTuning(rendered)
		if err != nil {
			t.Fatalf("render of accepted spec %q rejected: %q: %v", s, rendered, err)
		}
		if again.Spec() != rendered {
			t.Fatalf("render not a fixed point: %q -> %q -> %q", s, rendered, again.Spec())
		}
	})
}

const pointQuery = `{
  "machine": "laptop",
  "topology": {"nodes": 2, "ppn": 2},
  "collective": "allreduce",
  "sizes": [64, 8, 64],
  "tuning": {"policy": "cost"}
}`

// TestQueryCanonicalIdempotent: canonicalize∘parse is idempotent, the
// ladder is sorted and deduplicated, and defaults are explicit.
func TestQueryCanonicalIdempotent(t *testing.T) {
	q, err := spec.Parse([]byte(pointQuery))
	if err != nil {
		t.Fatal(err)
	}
	if got := q.Sizes; len(got) != 2 || got[0] != 8 || got[1] != 64 {
		t.Fatalf("ladder not sorted+deduped: %v", got)
	}
	if q.Engine != "goroutine" || q.Fold != "auto" || q.Iters != 1 || q.Tuning.Policy != "cost" {
		t.Fatalf("defaults not explicit: %+v", q)
	}
	if q.Topology.Nodes != 0 || q.Topology.PPN != 0 || q.Topology.PerLeaf != 2 {
		t.Fatalf("shorthand not canonicalized: %+v", q.Topology)
	}
	first, err := q.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	q2, err := spec.Parse(first)
	if err != nil {
		t.Fatalf("canonical JSON rejected: %v", err)
	}
	second, err := q2.CanonicalJSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Errorf("canonicalize not idempotent:\n%s\n%s", first, second)
	}
}

// TestFingerprintInvariance: equivalent declarations fingerprint
// identically, different runs differently.
func TestFingerprintInvariance(t *testing.T) {
	fp := func(s string) string {
		q, err := spec.Parse([]byte(s))
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		f, err := q.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		return f
	}
	a := fp(`{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8]}`)
	b := fp(`{"machine":"laptop","topology":{"per_leaf":2,"levels":[{"name":"node","arity":2}]},
	          "collective":"bcast","sizes":[8],"engine":"goroutine","fold":"auto","iters":1,
	          "tuning":{"policy":"table"}}`)
	if a != b {
		t.Errorf("equivalent queries fingerprint differently: %s vs %s", a, b)
	}
	c := fp(`{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[16]}`)
	if a == c {
		t.Errorf("different ladders share a fingerprint")
	}
}

func TestQueryRejections(t *testing.T) {
	cases := map[string]string{
		"unknown field":       `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8],"warp":9}`,
		"unknown machine":     `{"machine":"cray-3","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8]}`,
		"no machine":          `{"topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8]}`,
		"empty topology":      `{"machine":"laptop","topology":{},"collective":"bcast","sizes":[8]}`,
		"both topology forms": `{"machine":"laptop","topology":{"nodes":2,"ppn":2,"per_leaf":2,"levels":[{"name":"node","arity":2}]},"collective":"bcast","sizes":[8]}`,
		"no node level":       `{"machine":"laptop","topology":{"per_leaf":2,"levels":[{"name":"socket","arity":2}]},"collective":"bcast","sizes":[8]}`,
		"unknown collective":  `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"warpgather","sizes":[8]}`,
		"neighbor collective": `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"neighboralltoall","sizes":[8]}`,
		"empty ladder":        `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[]}`,
		"negative size":       `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[-8]}`,
		"bad engine":          `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8],"engine":"warp"}`,
		"bad fold":            `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8],"fold":"-3"}`,
		"bad policy":          `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8],"tuning":{"policy":"fast"}}`,
		"trailing data":       `{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8]} {}`,
	}
	for name, body := range cases {
		if _, err := spec.Parse([]byte(body)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func FuzzParseQuery(f *testing.F) {
	f.Add([]byte(pointQuery))
	f.Add([]byte(`{"machine":"laptop","topology":{"per_leaf":2,"levels":[{"name":"socket","arity":2},{"name":"node","arity":2}]},"collective":"allgather","sizes":[8,64],"engine":"event"}`))
	f.Add([]byte(`{"machine":"hazelhen-cray","topology":{"nodes":4,"ppn":4},"collective":"barrier","sizes":[1]}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":4},"collective":"allreduce","sizes":[8],"noise":{"seed":42,"jitter":0.25,"stragglers":[5,1],"straggler_factor":4,"congestion":{"net":2,"shm":1.5},"failures":[{"rank":3,"at_ps":1000000}]}}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8],"noise":{}}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8],"noise":{"congestion":{"group":1024}}}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"nodes":8,"ppn":8},"collective":"allreduce","sizes":[1024,16384],"tuning":{"policy":"measured"},"noise":{"seed":1,"congestion":{"net":16}}}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"bcast","sizes":[8],"noise":{"congestion":{"net":1}}}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":4},"collective":"bcast","sizes":[8],"noise":{"failures":[{"rank":3,"at_ps":200},{"rank":3,"at_ps":50}]}}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"allreduce","sizes":[8],"tuning":{"policy":"measured","force":{"allreduce":"recdbl"}}}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"allreduce","sizes":[8],"tuning":{"policy":"measured","store":"/tmp/x"}}`))
	f.Add([]byte(`{"machine":"hazelhen-cray","topology":{"node_sizes":[24,24,16]},"collective":"allgather","sizes":[8,4096],"tuning":{"force":{"allgather":"hybrid"}}}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"node_sizes":[4,4,4]},"collective":"allgather","sizes":[64],"engine":"event","tuning":{"force":{"allgather":"hybrid"},"shared_level":"node"}}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"node_sizes":[]},"collective":"bcast","sizes":[8]}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"node_sizes":[2,0]},"collective":"bcast","sizes":[8]}`))
	f.Add([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":2},"collective":"allgather","sizes":[8],"fold":"2","tuning":{"force":{"allgather":"hybrid"}}}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		q, err := spec.Parse(data)
		if err != nil {
			return
		}
		first, err := q.CanonicalJSON()
		if err != nil {
			t.Fatalf("accepted query cannot canonicalize: %v", err)
		}
		q2, err := spec.Parse(first)
		if err != nil {
			t.Fatalf("canonical JSON of accepted query rejected: %s: %v", first, err)
		}
		second, err := q2.CanonicalJSON()
		if err != nil || !bytes.Equal(first, second) {
			t.Fatalf("canonicalize not idempotent:\n%s\n%s (%v)", first, second, err)
		}
	})
}

// TestRunEnginesBitIdentical executes the same Query on both backends
// and demands bit-identical virtual times — the spec-level form of the
// cross-engine contract.
func TestRunEnginesBitIdentical(t *testing.T) {
	for _, collective := range allCollectives {
		q, err := spec.Parse([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":4},"collective":"` + collective + `","sizes":[8,4096],"iters":2}`))
		if err != nil {
			t.Fatal(err)
		}
		res, err := spec.Referee(context.Background(), q,
			spec.Path{Name: "goroutine", Engine: "goroutine"},
			spec.Path{Name: "event", Engine: "event"})
		if err != nil {
			t.Errorf("%s: %v", collective, err)
			continue
		}
		for _, p := range res.Points {
			if p.VirtualPs <= 0 {
				t.Errorf("%s at %d B: non-positive virtual time", collective, p.Bytes)
			}
		}
	}
}

// TestRunDeterministic: the same Query run twice is bit-identical.
func TestRunDeterministic(t *testing.T) {
	q, err := spec.Parse([]byte(pointQuery))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Referee(context.Background(), q, spec.Path{Name: "first"}, spec.Path{Name: "second"}); err != nil {
		t.Error(err)
	}
}

func TestRunCancelled(t *testing.T) {
	q, err := spec.Parse([]byte(pointQuery))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := spec.RunContext(ctx, q); err == nil || !strings.Contains(err.Error(), "cancel") {
		t.Errorf("cancelled run returned %v", err)
	}
}

func TestPrice(t *testing.T) {
	q, err := spec.Parse([]byte(`{"machine":"hazelhen-cray","topology":{"nodes":8,"ppn":8},
		"collective":"allgather","sizes":[64,1048576],"tuning":{"policy":"cost"}}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := spec.Price(q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Ranks != 64 || rep.Policy != "cost" || len(rep.Points) != 2 {
		t.Fatalf("report %+v", rep)
	}
	for _, pt := range rep.Points {
		if pt.Chosen == "" || len(pt.Candidates) == 0 {
			t.Fatalf("point %+v has no selection", pt)
		}
		var est float64
		for _, c := range pt.Candidates {
			if c.Name == pt.Chosen {
				est = c.EstUs
			}
		}
		if est <= 0 {
			t.Errorf("chosen %q at %d B has no positive estimate", pt.Chosen, pt.Bytes)
		}
	}
}

// TestTopologyRanksOverflow: the maxRanks backstop must survive a
// crafted level arity whose product wraps the int total back into
// range (the 1<<27 x (huge) OOM vector) — Ranks multiplies checked,
// and Canonicalize rejects any arity above the cap outright.
func TestTopologyRanksOverflow(t *testing.T) {
	huge := math.MaxInt/(1<<27) + 2 // (1<<27) * huge wraps past MaxInt
	top := spec.Topology{PerLeaf: 1 << 27, Levels: []sim.LevelDim{{Name: "node", Arity: huge}}}
	if r := top.Ranks(); r != -1 {
		t.Errorf("Ranks() = %d on an overflowing stack, want -1", r)
	}
	if err := top.Canonicalize(); err == nil {
		t.Error("Canonicalize accepted an overflowing topology")
	}
	body := fmt.Sprintf(`{"machine":"laptop","topology":{"per_leaf":%d,"levels":[{"name":"node","arity":%d}]},
		"collective":"bcast","sizes":[8]}`, 1<<27, huge)
	if _, err := spec.Parse([]byte(body)); err == nil {
		t.Error("Parse accepted a query with an overflowing topology")
	}
	// Multi-level wrap with every arity individually modest enough to
	// pass a naive per-field glance: 2^10 per leaf, levels of 2^10.
	deep := spec.Topology{PerLeaf: 1 << 10, Levels: []sim.LevelDim{
		{Name: "socket", Arity: 1 << 10}, {Name: "node", Arity: 1 << 10}, {Name: "rack", Arity: 1 << 10}}}
	if r := deep.Ranks(); r != -1 {
		t.Errorf("Ranks() = %d for 2^40 ranks, want -1", r)
	}
}

// TestPriceFloorsSubElementSizes pins the price path to the run
// path's whole-element floor: a sub-8-byte reducing collective is
// executed with one float64 element, so pricing must feed Count 1
// (not 0) to the selection engine or /v1/price and /v1/run describe
// different workloads at the same canonical Query.
func TestPriceFloorsSubElementSizes(t *testing.T) {
	q, err := spec.Parse([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":2},
		"collective":"allreduce","sizes":[4]}`))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := spec.Price(q)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Hop != sim.HopNet.String() {
		t.Fatalf("hop %q, want %q (test assumes a partitioned node level)", rep.Hop, sim.HopNet)
	}
	want := coll.Candidates(coll.CollAllreduce,
		coll.Env{Size: 4, Bytes: 4, Count: 1, Model: sim.Profiles()["laptop"](), Hop: sim.HopNet})
	got := rep.Points[0].Candidates
	if len(got) != len(want) {
		t.Fatalf("%d candidates, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Applicable != want[i].Applicable ||
			got[i].EstUs != want[i].Est.Us() {
			t.Errorf("candidate %d: got %+v, want {%s %v %v}",
				i, got[i], want[i].Name, want[i].Applicable, want[i].Est.Us())
		}
	}
}

// TestBlockTimesRanksFitsInt runs the gathering collectives at the
// largest ladder size, whose buffers hold size × ranks bytes. Where int
// is 64 bits they run; where it is 32 bits (GOARCH=386) the product
// wraps, so the query is refused with a plain error instead of a rank
// panicking on a wrapped buffer length.
func TestBlockTimesRanksFitsInt(t *testing.T) {
	const size, ranks = 1 << 30, 4
	for _, cl := range []string{"allgather", "allgatherv", "alltoall", "gather"} {
		q := &spec.Query{Machine: "laptop", Topology: spec.Topology{Nodes: 1, PPN: ranks}, Collective: cl, Sizes: []int{size}}
		res, err := spec.Run(q)
		if size > math.MaxInt/ranks {
			if err == nil || !strings.Contains(err.Error(), "needs a buffer larger than") || strings.Contains(err.Error(), "panic") {
				t.Errorf("%s: %d bytes on %d ranks: err = %v, want a plain refusal", cl, size, ranks, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", cl, err)
		} else if res.Points[0].VirtualPs <= 0 {
			t.Errorf("%s: virtual time %d ps", cl, res.Points[0].VirtualPs)
		}
	}
}
