package bench

import (
	"testing"

	"repro/internal/coll"
	"repro/internal/sim"
)

func TestCollSweepStructure(t *testing.T) {
	rep := RunCollSweep(sim.HazelHenCray(), coll.Tuning{Policy: coll.PolicyCost})
	if rep.Policy != "cost" || rep.Model != "hazelhen-cray" {
		t.Errorf("header = %q/%q", rep.Model, rep.Policy)
	}
	if len(rep.Points) == 0 {
		t.Fatal("sweep produced no points")
	}
	// Every tunable collective must exhibit at least one crossover:
	// that is the whole point of a size-dependent selection engine.
	seen := map[string]bool{}
	for _, x := range rep.Crossovers {
		seen[x.Collective] = true
	}
	for _, want := range []string{"allgather", "allreduce", "bcast"} {
		if !seen[want] {
			t.Errorf("no crossover for %s", want)
		}
	}
	// Points must agree with Choose (the sweep is introspection, not a
	// second selection implementation), and the largest sizes must land
	// on the bandwidth-optimal algorithms.
	for _, p := range rep.Points {
		cl, err := coll.ParseCollective(p.Collective)
		if err != nil {
			t.Fatal(err)
		}
		e := coll.Env{Size: p.CommSize, Bytes: p.Bytes, Count: p.Bytes / 8,
			Model: sim.HazelHenCray(), Hop: sim.HopNet}
		want, err := coll.Choose(cl, e, coll.Tuning{Policy: coll.PolicyCost})
		if err != nil {
			t.Fatal(err)
		}
		if p.Chosen != want {
			t.Errorf("%s n=%d %dB: sweep says %q, Choose says %q",
				p.Collective, p.CommSize, p.Bytes, p.Chosen, want)
		}
		if p.Bytes == 4<<20 {
			switch p.Collective {
			case "allgather":
				if p.Chosen != "ring" {
					t.Errorf("allgather at 4 MiB chose %q, want ring", p.Chosen)
				}
			case "allreduce":
				if p.Chosen != "rabenseifner" {
					t.Errorf("allreduce at 4 MiB chose %q, want rabenseifner", p.Chosen)
				}
			case "bcast":
				// The pipeline's (n-1) chunk hops push its crossover
				// beyond 4 MiB on wide communicators; scag is still
				// a bandwidth algorithm, binomial is not.
				if p.Chosen == "binomial" {
					t.Errorf("bcast at 4 MiB still chose binomial (n=%d)", p.CommSize)
				}
			}
		}
	}
}
