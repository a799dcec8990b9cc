package coll

import (
	"fmt"
	"testing"

	"repro/internal/mpi"
	"repro/internal/sim"
)

// TestChooseTablePolicy pins the table policy's decisions at
// representative (comm size, bytes) points: they must replicate the
// machine profile's cutoffs exactly, because the virtual-time goldens
// depend on them.
func TestChooseTablePolicy(t *testing.T) {
	model := sim.HazelHenCray()
	cases := []struct {
		coll  Collective
		size  int
		bytes int // Env meaning: per-rank block (allgather/alltoall), total otherwise
		count int
		want  string
	}{
		{CollAllgather, 8, 64, 0, "recdbl"},                // small total, pow2
		{CollAllgather, 6, 64, 0, "bruck"},                 // small total, non-pow2
		{CollAllgather, 8, 128 << 10, 0, "ring"},           // total 1 MiB > 512 KiB
		{CollAllgatherv, 8, 1 << 10, 0, "recdbl"},          // small total, pow2
		{CollAllgatherv, 6, 1 << 10, 0, "ring"},            // non-pow2
		{CollAllgatherv, 8, 1 << 20, 0, "ring"},            // big total
		{CollAllreduce, 8, 128, 16, "recdbl"},              // short vector
		{CollAllreduce, 8, 64 << 10, 8192, "rabenseifner"}, // long vector
		{CollAllreduce, 16, 64 << 10, 8, "recdbl"},         // count < size
		{CollReduce, 8, 1 << 10, 128, "binomial"},          // only algorithm
		{CollBcast, 8, 4 << 10, 0, "binomial"},             // <= BcastShortMax
		{CollBcast, 2, 1 << 20, 0, "binomial"},             // tiny comm
		{CollBcast, 8, 64 << 10, 0, "scag"},                // medium
		{CollBcast, 8, 1 << 20, 0, "pipelined"},            // >= BcastPipelineMin
		{CollBarrier, 8, 0, 0, "dissemination"},            // native default
		{CollAlltoall, 8, 1 << 10, 0, "pairwise"},          // only algorithm
	}
	for _, tc := range cases {
		e := Env{Size: tc.size, Bytes: tc.bytes, Count: tc.count, Model: model, Hop: sim.HopNet}
		got, err := Choose(tc.coll, e, Tuning{})
		if err != nil {
			t.Errorf("%s size=%d bytes=%d: %v", tc.coll, tc.size, tc.bytes, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s size=%d bytes=%d count=%d: chose %q, want %q",
				tc.coll, tc.size, tc.bytes, tc.count, got, tc.want)
		}
	}
}

// TestChooseCostPolicy checks the cost-model policy lands where the
// LogGP formulas put the crossovers: logarithmic algorithms for small
// payloads, bandwidth-optimal ones beyond, never an inapplicable
// algorithm.
func TestChooseCostPolicy(t *testing.T) {
	model := sim.HazelHenCray()
	tun := Tuning{Policy: PolicyCost}
	choose := func(cl Collective, size, bytes, count int) string {
		t.Helper()
		got, err := Choose(cl, Env{Size: size, Bytes: bytes, Count: count, Model: model, Hop: sim.HopNet}, tun)
		if err != nil {
			t.Fatalf("%s size=%d bytes=%d: %v", cl, size, bytes, err)
		}
		return got
	}

	if got := choose(CollAllgather, 16, 8, 0); got != "recdbl" {
		t.Errorf("tiny pow2 allgather: cost policy chose %q, want recdbl", got)
	}
	if got := choose(CollAllgather, 16, 4<<20, 0); got != "ring" {
		t.Errorf("huge allgather: cost policy chose %q, want ring", got)
	}
	if got := choose(CollAllgather, 15, 8, 0); got == "recdbl" || got == "neighbor" {
		t.Errorf("non-pow2 odd allgather: cost policy chose inapplicable %q", got)
	}
	if got := choose(CollAllreduce, 16, 64, 8); got != "recdbl" {
		t.Errorf("tiny allreduce: cost policy chose %q, want recdbl", got)
	}
	if got := choose(CollAllreduce, 16, 8<<20, 1<<20); got != "rabenseifner" {
		t.Errorf("huge allreduce: cost policy chose %q, want rabenseifner", got)
	}
	if got := choose(CollBcast, 16, 64, 0); got != "binomial" {
		t.Errorf("tiny bcast: cost policy chose %q, want binomial", got)
	}
	if got := choose(CollBcast, 16, 16<<20, 0); got == "binomial" {
		t.Errorf("huge bcast: cost policy still chose binomial")
	}
	if got := choose(CollBarrier, 16, 0, 0); got != "dissemination" {
		t.Errorf("barrier: cost policy chose %q, want dissemination", got)
	}

	// The cost policy must be monotone enough to produce exactly the
	// crossover structure the sweep reports: as bytes grow the choice
	// changes at least once for allgather and never returns to the
	// latency-bound algorithm.
	prev := ""
	sawRing := false
	for bytes := 8; bytes <= 4<<20; bytes *= 2 {
		got := choose(CollAllgather, 16, bytes, 0)
		if sawRing && got != "ring" {
			t.Errorf("allgather selection flapped back to %q at %dB after ring", got, bytes)
		}
		if got == "ring" {
			sawRing = true
		}
		prev = got
	}
	if !sawRing {
		t.Errorf("allgather cost policy never crossed to ring (last %q)", prev)
	}
}

// TestCandidatesRespectApplicability checks the introspection hook.
func TestCandidatesRespectApplicability(t *testing.T) {
	model := sim.Laptop()
	cands := Candidates(CollAllgather, Env{Size: 6, Bytes: 64, Model: model, Hop: sim.HopNet})
	byName := map[string]Candidate{}
	for _, c := range cands {
		byName[c.Name] = c
	}
	if byName["recdbl"].Applicable {
		t.Error("recdbl applicable on 6 ranks")
	}
	if !byName["bruck"].Applicable || !byName["ring"].Applicable || !byName["neighbor"].Applicable {
		t.Error("bruck/ring/neighbor should be applicable on 6 ranks")
	}
	for _, c := range cands {
		if c.Applicable && c.Est <= 0 {
			t.Errorf("%s: applicable with non-positive estimate %v", c.Name, c.Est)
		}
	}
}

// TestForceOverride checks forced algorithms win when applicable and
// fall back to the policy choice when not.
func TestForceOverride(t *testing.T) {
	model := sim.HazelHenCray()
	e := Env{Size: 8, Bytes: 64, Model: model, Hop: sim.HopNet} // table would say recdbl
	forced := Tuning{Force: map[Collective]string{CollAllgather: "ring"}}
	if got, _ := Choose(CollAllgather, e, forced); got != "ring" {
		t.Errorf("forced ring ignored: got %q", got)
	}
	// recdbl cannot serve 6 ranks; the table choice (bruck) runs.
	e6 := Env{Size: 6, Bytes: 64, Model: model, Hop: sim.HopNet}
	forcedRD := Tuning{Force: map[Collective]string{CollAllgather: "recdbl"}}
	if got, _ := Choose(CollAllgather, e6, forcedRD); got != "bruck" {
		t.Errorf("inapplicable force should fall back to table choice, got %q", got)
	}
}

// TestTuningInheritedThroughSplit checks the configuration threads from
// the world through CommWorld and Split — the path the hybrid layer's
// bridge communicators take.
func TestTuningInheritedThroughSplit(t *testing.T) {
	topo, err := sim.NewTopology([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	forced := Tuning{Force: map[Collective]string{CollBarrier: "central"}}
	w, err := mpi.NewWorld(sim.Laptop(), topo, mpi.WithCollConfig(forced))
	if err != nil {
		t.Fatal(err)
	}
	err = w.Run(func(p *mpi.Proc) error {
		c := p.CommWorld()
		if got := TuningFor(c); got.Force[CollBarrier] != "central" {
			t.Errorf("world tuning not on CommWorld: %v", got)
		}
		child, err := c.Split(0, c.Rank())
		if err != nil {
			return err
		}
		if got := TuningFor(child); got.Force[CollBarrier] != "central" {
			t.Errorf("tuning not inherited through Split: %v", got)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestForcedBarrierMatchesCentral checks that routing Barrier through
// the registry actually changes the executed algorithm: under the
// central force, the virtual time equals barrierCentral's and differs
// from the native dissemination barrier's.
func TestForcedBarrierMatchesCentral(t *testing.T) {
	model := sim.HazelHenCray()
	shape := []int{1, 1, 1, 1, 1} // all-net so the algorithms differ clearly
	run := func(tun *Tuning, direct func(*mpi.Comm) error) sim.Time {
		t.Helper()
		return latencyOf(t, model, shape, func(p *mpi.Proc) error {
			c := p.CommWorld()
			if tun != nil {
				c.SetCollConfig(*tun)
			}
			if direct != nil {
				return direct(c)
			}
			return Barrier(c)
		})
	}
	defTime := run(nil, nil)
	dissTime := run(nil, func(c *mpi.Comm) error { return c.Barrier() })
	forcedTime := run(&Tuning{Force: map[Collective]string{CollBarrier: "central"}}, nil)
	centralTime := run(nil, barrierCentral)
	if defTime != dissTime {
		t.Errorf("default Barrier (%v) != native dissemination (%v)", defTime, dissTime)
	}
	if forcedTime != centralTime {
		t.Errorf("forced central Barrier (%v) != barrierCentral (%v)", forcedTime, centralTime)
	}
	if forcedTime == dissTime {
		t.Errorf("central and dissemination barriers indistinguishable (%v)", forcedTime)
	}
}

// TestEveryAlgorithmMatchesReference forces each registered algorithm
// in turn through the engine and cross-checks its output against the
// reference pattern, on a non-power-of-two communicator and with
// zero-length payloads — the corners where algorithm bugs live.
func TestEveryAlgorithmMatchesReference(t *testing.T) {
	shapes := [][]int{{3, 3}, {2, 2}} // 6 ranks (non-pow2) and 4 ranks
	for _, shape := range shapes {
		n := 0
		for _, s := range shape {
			n += s
		}
		for _, elems := range []int{0, 9} {
			elems := elems
			t.Run(fmt.Sprintf("shape%v/e%d", shape, elems), func(t *testing.T) {
				t.Run("allgather", func(t *testing.T) {
					for _, alg := range namesOf(CollAllgather) {
						if (alg == "recdbl" && !isPow2(n)) || (alg == "neighbor" && n%2 != 0) {
							continue
						}
						tun := Tuning{Force: map[Collective]string{CollAllgather: alg}}
						runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
							c := WithTuning(p.CommWorld(), tun)
							recv := mpi.Bytes(make([]byte, 8*elems*n))
							if err := Allgather(c, fill(p.Rank(), elems), recv, 8*elems); err != nil {
								return fmt.Errorf("%s: %w", alg, err)
							}
							checkGathered(t, alg, recv, n, elems)
							return nil
						})
					}
				})
				t.Run("allreduce", func(t *testing.T) {
					for _, alg := range namesOf(CollAllreduce) {
						tun := Tuning{Force: map[Collective]string{CollAllreduce: alg}}
						runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
							c := WithTuning(p.CommWorld(), tun)
							v := make([]float64, elems)
							for i := range v {
								v[i] = float64(p.Rank() + i)
							}
							recv := mpi.Bytes(make([]byte, 8*elems))
							if err := Allreduce(c, mpi.FromFloat64s(v), recv, elems, mpi.Float64, mpi.OpSum); err != nil {
								return fmt.Errorf("%s: %w", alg, err)
							}
							for i := 0; i < elems; i++ {
								want := float64(n*i + n*(n-1)/2)
								if got := recv.Float64At(i); got != want {
									t.Errorf("%s: elem %d = %v, want %v", alg, i, got, want)
									return nil
								}
							}
							return nil
						})
					}
				})
				t.Run("bcast", func(t *testing.T) {
					for _, alg := range namesOf(CollBcast) {
						tun := Tuning{Force: map[Collective]string{CollBcast: alg}}
						runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
							c := WithTuning(p.CommWorld(), tun)
							var buf mpi.Buf
							if p.Rank() == 1 {
								buf = fill(1, elems)
							} else {
								buf = mpi.Bytes(make([]byte, 8*elems))
							}
							if err := Bcast(c, buf, 1); err != nil {
								return fmt.Errorf("%s: %w", alg, err)
							}
							for i := 0; i < elems; i++ {
								want := float64(1*1_000_000 + i)
								if got := buf.Float64At(i); got != want {
									t.Errorf("%s: elem %d = %v, want %v", alg, i, got, want)
									return nil
								}
							}
							return nil
						})
					}
				})
				t.Run("barrier", func(t *testing.T) {
					for _, alg := range namesOf(CollBarrier) {
						tun := Tuning{Force: map[Collective]string{CollBarrier: alg}}
						left := make([]sim.Time, n)
						runWorld(t, sim.Laptop(), shape, func(p *mpi.Proc) error {
							c := WithTuning(p.CommWorld(), tun)
							p.Elapse(sim.Time(p.Rank()) * sim.Millisecond)
							err := Barrier(c)
							left[p.Rank()] = p.Clock()
							return err
						})
						for r, at := range left {
							if at < sim.Time(n-1)*sim.Millisecond {
								t.Errorf("%s: rank %d left barrier early at %v", alg, r, at)
							}
						}
					}
				})
			})
		}
	}
}

// TestCostPolicyEndToEnd runs a collective under the cost policy on a
// real world, checking the engine path works outside the table default.
func TestCostPolicyEndToEnd(t *testing.T) {
	const elems = 17
	runWorld(t, sim.Laptop(), []int{3, 3}, func(p *mpi.Proc) error {
		c := WithTuning(p.CommWorld(), Tuning{Policy: PolicyCost})
		recv := mpi.Bytes(make([]byte, 8*elems*6))
		if err := Allgather(c, fill(p.Rank(), elems), recv, 8*elems); err != nil {
			return err
		}
		checkGathered(t, "cost-policy", recv, 6, elems)
		return nil
	})
}
