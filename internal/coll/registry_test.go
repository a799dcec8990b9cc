package coll

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestCostPolicyTieBreaksByRegistrationOrder pins the selection
// engine's tie-break: when two applicable algorithms price identically
// under PolicyCost, the first-registered one wins (the minimizer's
// strict `<` keeps the incumbent). This ordering is load-bearing for
// bit-identity — a tie broken differently across two runs, engines or
// processes would change which algorithm executes and therefore the
// virtual timeline — so it gets an explicit test instead of riding on
// the golden suites. Both cases below are genuine zero-cost ties at
// communicator size 1.
func TestCostPolicyTieBreaksByRegistrationOrder(t *testing.T) {
	model := sim.Laptop()
	cases := []struct {
		cl   Collective
		e    Env
		tied []string // every registered candidate priced equal here
		want string   // the first-registered of them
	}{
		{
			// Barrier at size 1: dissemination runs zero rounds,
			// central does zero round trips — both cost exactly 0.
			cl:   CollBarrier,
			e:    Env{Size: 1, Model: model, Hop: sim.HopNet},
			tied: []string{"dissemination", "central"},
			want: "dissemination",
		},
		{
			// Scan at size 1: zero steps for recursive doubling, zero
			// hops for linear — both cost exactly 0.
			cl:   CollScan,
			e:    Env{Size: 1, Bytes: 8, Count: 1, Model: model, Hop: sim.HopNet},
			tied: []string{"recdbl", "linear"},
			want: "recdbl",
		},
	}
	for _, tc := range cases {
		t.Run(tc.cl.String(), func(t *testing.T) {
			// The premise first: the case really is a tie, and the
			// expected winner really is first in registration order.
			var prices []sim.Time
			for _, name := range tc.tied {
				en := findEntry(tc.cl, name)
				if en == nil || !en.available(tc.e, false) {
					t.Fatalf("%s/%s not available", tc.cl, name)
				}
				prices = append(prices, en.cost(tc.e))
			}
			for i := 1; i < len(prices); i++ {
				if prices[i] != prices[0] {
					t.Fatalf("not a tie: %s prices %v", tc.cl, prices)
				}
			}
			if got := namesOf(tc.cl)[0]; got != tc.want {
				t.Fatalf("expected winner %q is not first-registered (%q)", tc.want, got)
			}
			got, err := Choose(tc.cl, tc.e, Tuning{Policy: PolicyCost})
			if err != nil {
				t.Fatal(err)
			}
			if got != tc.want {
				t.Fatalf("tie broke to %q, want first-registered %q", got, tc.want)
			}
		})
	}
}

// TestRegistrationOrderPinned pins the full registration order per
// family to the table TUNING.md documents. Reordering entries would
// silently change every tie-break (and the measured policy's race
// order), so any such change must update this test — and the docs —
// deliberately.
func TestRegistrationOrderPinned(t *testing.T) {
	want := map[Collective][]string{
		CollAllgather:        {"recdbl", "bruck", "ring", "neighbor"},
		CollAllgatherv:       {"recdbl", "ring"},
		CollAllreduce:        {"recdbl", "rabenseifner"},
		CollReduce:           {"binomial"},
		CollBcast:            {"binomial", "scag", "pipelined"},
		CollBarrier:          {"dissemination", "central"},
		CollAlltoall:         {"pairwise"},
		CollGather:           {"binomial", "linear"},
		CollScan:             {"recdbl", "linear"},
		CollNeighborAlltoall: {"pairwise", "linear"},
	}
	for cl, names := range want {
		if got := namesOf(cl); !reflect.DeepEqual(got, names) {
			t.Errorf("%s registration order %v, want %v", cl, got, names)
		}
	}
	// Every family constant is in the table above, round-trips through
	// its name, and has at least one entry the cost policy can price.
	for cl := Collective(0); cl < numCollectives; cl++ {
		if _, ok := want[cl]; !ok {
			t.Errorf("%s is missing from the pinned registration order", cl)
		}
		if back, err := ParseCollective(cl.String()); err != nil || back != cl {
			t.Errorf("ParseCollective(%q) = %v, %v", cl.String(), back, err)
		}
		priced := false
		for i := range registry[cl] {
			priced = priced || registry[cl][i].cost != nil
		}
		if !priced {
			t.Errorf("%s has no entry with a cost function", cl)
		}
	}
	// The families this package no longer has are unknown names, like
	// any misspelling.
	for _, gone := range []string{"neighborallgather", "neighboralltoallv"} {
		if _, err := ParseCollective(gone); err == nil {
			t.Errorf("ParseCollective(%q) still succeeds", gone)
		}
	}
}

// TestMeasuredPolicyPick covers the measured policy's resolution
// ladder at the unit level: cache hit wins, inapplicable or unknown
// cached names fall back, a miss reports through OnMiss exactly once
// and serves the cost choice, and a nil Lookup degenerates to
// PolicyCost.
func TestMeasuredPolicyPick(t *testing.T) {
	model := sim.Laptop()
	e := Env{Size: 64, Bytes: 16384, Count: 2048, Model: model, Hop: sim.HopNet}
	costPick, err := Choose(CollAllreduce, e, Tuning{Policy: PolicyCost})
	if err != nil {
		t.Fatal(err)
	}

	lookup := func(name string, ok bool) func(Collective, Env) (string, bool) {
		return func(Collective, Env) (string, bool) { return name, ok }
	}

	// Hit: the cached winner is served even when it is not the cost
	// choice.
	other := "recdbl"
	if costPick == "recdbl" {
		other = "rabenseifner"
	}
	got, err := Choose(CollAllreduce, e, Tuning{Policy: PolicyMeasured, Lookup: lookup(other, true)})
	if err != nil {
		t.Fatal(err)
	}
	if got != other {
		t.Fatalf("cache hit served %q, want %q", got, other)
	}

	// Unknown cached name: fall back to the cost choice.
	got, err = Choose(CollAllreduce, e, Tuning{Policy: PolicyMeasured, Lookup: lookup("warp", true)})
	if err != nil || got != costPick {
		t.Fatalf("unknown cached name served %q (%v), want cost pick %q", got, err, costPick)
	}

	// Inapplicable cached name: recdbl cannot serve a non-power-of-two
	// allgather; the cost path must answer instead.
	e3 := Env{Size: 6, Bytes: 1024, Model: model, Hop: sim.HopNet}
	got, err = Choose(CollAllgather, e3, Tuning{Policy: PolicyMeasured, Lookup: lookup("recdbl", true)})
	if err != nil {
		t.Fatal(err)
	}
	if got == "recdbl" {
		t.Fatal("inapplicable cached algorithm was served")
	}

	// Miss: OnMiss fires once with the call's env, and the cost choice
	// is served.
	var missed []Env
	tun := Tuning{
		Policy: PolicyMeasured,
		Lookup: lookup("", false),
		OnMiss: func(cl Collective, me Env) {
			if cl != CollAllreduce {
				t.Fatalf("OnMiss collective %v", cl)
			}
			missed = append(missed, me)
		},
	}
	got, err = Choose(CollAllreduce, e, tun)
	if err != nil || got != costPick {
		t.Fatalf("miss served %q (%v), want cost pick %q", got, err, costPick)
	}
	if len(missed) != 1 || missed[0].Size != e.Size || missed[0].Bytes != e.Bytes {
		t.Fatalf("OnMiss calls: %+v", missed)
	}

	// No cache at all: exactly the cost policy.
	got, err = Choose(CollAllreduce, e, Tuning{Policy: PolicyMeasured})
	if err != nil || got != costPick {
		t.Fatalf("nil Lookup served %q (%v), want cost pick %q", got, err, costPick)
	}

	// Force still outranks the cache.
	forced := Tuning{
		Policy: PolicyMeasured,
		Force:  map[Collective]string{CollAllreduce: "recdbl"},
		Lookup: lookup("rabenseifner", true),
	}
	got, err = Choose(CollAllreduce, e, forced)
	if err != nil || got != "recdbl" {
		t.Fatalf("force under measured served %q (%v), want recdbl", got, err)
	}
}

// TestAvailable pins the applicability check Race filters its
// candidates with.
func TestAvailable(t *testing.T) {
	model := sim.Laptop()
	pow2 := Env{Size: 8, Bytes: 64, Model: model, Hop: sim.HopNet}
	odd := Env{Size: 5, Bytes: 64, Model: model, Hop: sim.HopNet}
	recdbl := findEntry(CollAllgather, "recdbl")
	if !recdbl.available(pow2, false) {
		t.Fatal("recdbl must be available on a power-of-two comm")
	}
	if recdbl.available(odd, false) {
		t.Fatal("recdbl must be unavailable on a 5-rank comm")
	}
	if findEntry(CollAllgather, "warp") != nil {
		t.Fatal("unknown algorithm registered")
	}
	if findEntry(CollAllgather, "bruck").available(pow2, true) {
		t.Fatal("bruck has no in-place runner")
	}
}

// namesOf lists a family's registered algorithms in registration
// order.
func namesOf(cl Collective) []string {
	var names []string
	for _, en := range registry[cl] {
		names = append(names, en.name)
	}
	return names
}

// sizedWorld builds a size-only world of the shape, closed when the
// test ends.
func sizedWorld(t *testing.T, model *sim.CostModel, shape []int, opts ...mpi.Option) *mpi.World {
	t.Helper()
	topo, err := sim.NewTopology(shape)
	if err != nil {
		t.Fatal(err)
	}
	w, err := mpi.NewWorld(model, topo, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	return w
}

// TestRace pins coll.Race: a candidate that cannot serve the call is
// skipped, laps come in registration order, each lap equals a fresh
// world's run forced to that algorithm (clean and under noise), the
// world communicator's own tuning is back in force after the race, and
// a failing body names the candidate it failed under.
func TestRace(t *testing.T) {
	model := sim.HazelHenCray()
	t.Run("skips inapplicable", func(t *testing.T) {
		const per = 64
		w := sizedWorld(t, model, []int{4, 4, 4})
		laps, err := Race(w, CollAllgather, Env{Size: 12, Bytes: per}, func(c *mpi.Comm) error {
			return Allgather(c, mpi.Sized(per), mpi.Sized(per*c.Size()), per)
		})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, l := range laps {
			got = append(got, l.Name)
		}
		if want := []string{"bruck", "ring", "neighbor"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("12-rank allgather raced %v, want %v", got, want)
		}
	})

	noises := map[string]*sim.Noise{
		"clean":     nil,
		"jitter":    {Seed: 3, Jitter: 0.5},
		"straggler": {Seed: 3, Stragglers: []int{0}, StragglerFactor: 8},
		"mixed": {Seed: 3, Jitter: 0.2, Stragglers: []int{0}, StragglerFactor: 4,
			Congestion: map[sim.HopClass]float64{sim.HopNet: 4}},
	}
	shape := []int{8, 8, 8, 8, 8, 8, 8, 8}
	for label, noise := range noises {
		for _, elems := range []int{128, 2048, 16384} {
			t.Run(fmt.Sprintf("%s/%d", label, elems), func(t *testing.T) {
				body := func(c *mpi.Comm) error {
					send, recv := mpi.Sized(8*elems), mpi.Sized(8*elems)
					for i := 0; i < 2; i++ {
						if err := Allreduce(c, send, recv, elems, mpi.Float64, mpi.OpSum); err != nil {
							return err
						}
					}
					return nil
				}
				run := func(w *mpi.World) sim.Time {
					t.Helper()
					w.ResetClocks()
					if err := w.Run(func(p *mpi.Proc) error { return body(p.CommWorld()) }); err != nil {
						t.Fatal(err)
					}
					return w.MaxClock()
				}
				w := sizedWorld(t, model, shape, mpi.WithNoise(noise))
				laps, err := Race(w, CollAllreduce, Env{Size: 64, Count: elems}, body)
				if err != nil {
					t.Fatal(err)
				}
				if len(laps) != 2 || laps[0].Name != "recdbl" || laps[1].Name != "rabenseifner" {
					t.Fatalf("laps %+v, want recdbl then rabenseifner", laps)
				}
				for _, l := range laps {
					forced := Tuning{Force: map[Collective]string{CollAllreduce: l.Name}}
					fresh := run(sizedWorld(t, model, shape, mpi.WithNoise(noise), mpi.WithCollConfig(forced)))
					if l.Time != fresh {
						t.Errorf("%s lap %v != fresh forced world %v", l.Name, l.Time, fresh)
					}
				}
				if after, fresh := run(w), run(sizedWorld(t, model, shape, mpi.WithNoise(noise))); after != fresh {
					t.Errorf("policy run after the race %v != fresh world %v", after, fresh)
				}
			})
		}
	}

	t.Run("names the failing candidate", func(t *testing.T) {
		boom := errors.New("boom")
		w := sizedWorld(t, model, []int{2, 2})
		_, err := Race(w, CollBarrier, Env{Size: 4}, func(c *mpi.Comm) error {
			if TuningFor(c).Force[CollBarrier] == "central" {
				return boom
			}
			return Barrier(c)
		})
		if !errors.Is(err, boom) || !strings.Contains(err.Error(), "central") {
			t.Fatalf("err = %v, want boom under central", err)
		}
	})
}
