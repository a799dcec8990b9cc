package spec_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/spec"
)

// allCollectives is every runnable Query collective — the warm-world
// paths must be refereed against the cold path on all of them.
var allCollectives = []string{
	"allgather", "allgatherv", "allreduce", "reduce", "scan",
	"bcast", "barrier", "alltoall", "gather",
}

// TestExecWarmPathsBitIdentical is the PR 8 referee: for every
// collective on both engines, the construct-per-point path
// (PerPointWorlds — the historical behavior), the warm within-query
// path (zero Exec), the pooled path and the pooled+parallel path must
// return bit-identical points. The ladder mixes sizes so the event
// engine's fold=auto produces multiple fold groups for the foldable
// collectives, covering group partitioning too. Referee itself demands
// that the two pooled paths reused a world.
func TestExecWarmPathsBitIdentical(t *testing.T) {
	pool := spec.NewWorldPool(spec.PoolConfig{MaxIdle: -1})
	defer pool.Close()
	for _, collective := range allCollectives {
		for _, engine := range []string{"goroutine", "event"} {
			q, err := spec.Parse([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":4},"collective":"` +
				collective + `","sizes":[8,512,4096,65536],"iters":2}`))
			if err != nil {
				t.Fatal(err)
			}
			_, err = spec.Referee(context.Background(), q,
				spec.Path{Name: "perpoint", Engine: engine, Exec: &spec.Exec{PerPointWorlds: true}},
				spec.Path{Name: "warm", Engine: engine},
				spec.Path{Name: "pooled", Engine: engine, Exec: &spec.Exec{Pool: pool}},
				spec.Path{Name: "pooled-parallel", Engine: engine, Exec: &spec.Exec{Pool: pool, Parallelism: 4}})
			if err != nil {
				t.Errorf("%s %s: %v", collective, engine, err)
			}
		}
	}
}

// TestExecPooledSequenceMatchesCold reruns one query through the SAME
// pooled world several times: the second and later runs execute on a
// warm, already-run world and must still match the cold result
// exactly.
func TestExecPooledSequenceMatchesCold(t *testing.T) {
	pool := spec.NewWorldPool(spec.PoolConfig{MaxIdle: -1})
	defer pool.Close()
	q, err := spec.Parse([]byte(`{"machine":"laptop","topology":{"nodes":2,"ppn":4},"collective":"allgather","sizes":[64,4096],"iters":3}`))
	if err != nil {
		t.Fatal(err)
	}
	pooled := &spec.Exec{Pool: pool}
	_, err = spec.Referee(context.Background(), q,
		spec.Path{Name: "cold", Exec: &spec.Exec{PerPointWorlds: true}},
		spec.Path{Name: "pooled-0", Exec: pooled},
		spec.Path{Name: "pooled-1", Exec: pooled},
		spec.Path{Name: "pooled-2", Exec: pooled})
	if err != nil {
		t.Error(err)
	}
	if s := pool.Stats(); s.Hits < 2 {
		t.Errorf("reruns did not reuse the world: %+v", s)
	}
}

// TestRunRejectsBadFold pins the satellite fix: a malformed or
// non-positive fold reaches the caller as an error instead of being
// silently ignored (the old path ran unfolded as if nothing happened).
func TestRunRejectsBadFold(t *testing.T) {
	for _, fold := range []string{"banana", "0", "-4", "1.5"} {
		q, err := spec.Parse([]byte(
			`{"machine":"laptop","topology":{"nodes":2,"ppn":4},"collective":"allgather","sizes":[64],"fold":"` + fold + `"}`))
		if err == nil {
			_, err = spec.Run(q)
		}
		if err == nil || !strings.Contains(err.Error(), "fold") {
			t.Errorf("fold %q: got %v, want fold error", fold, err)
		}
	}
}
