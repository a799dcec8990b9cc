package spec_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/spec"
)

// TestRefereeDemandsPoolHit: two paths sharing a world pool prove
// something about warm worlds only if one of them ran on a world the
// other left behind. Referee checks that itself, so no caller has to.
func TestRefereeDemandsPoolHit(t *testing.T) {
	q, err := spec.Parse([]byte(pointQuery))
	if err != nil {
		t.Fatal(err)
	}
	referee := func(pool *spec.WorldPool) error {
		defer pool.Close()
		pooled := &spec.Exec{Pool: pool}
		_, err := spec.Referee(context.Background(), q,
			spec.Path{Name: "cold", Exec: &spec.Exec{PerPointWorlds: true}},
			spec.Path{Name: "pooled", Exec: pooled},
			spec.Path{Name: "pooled-warm", Exec: pooled})
		return err
	}
	pool := spec.NewWorldPool(spec.PoolConfig{MaxIdle: -1})
	if err := referee(pool); err != nil {
		t.Errorf("warm pool: %v", err)
	}
	if s := pool.Stats(); s.Hits == 0 {
		t.Errorf("warm pool recorded no hit: %+v", s)
	}
	// A closed pool misses every checkout and retires every world at
	// check-in, so it can never serve a warm one: the verdict would say
	// nothing about reuse.
	closed := spec.NewWorldPool(spec.PoolConfig{MaxIdle: -1})
	closed.Close()
	err = referee(closed)
	if err == nil || !strings.Contains(err.Error(), "share a world pool but none hit it") {
		t.Errorf("hitless pool: got %v, want the no-warm-world error", err)
	}
}
