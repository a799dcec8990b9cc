package spec

import (
	"testing"

	"repro/internal/coll"
	"repro/internal/sim"
	"repro/internal/tune"
)

// TestTunerOwnsItsRequests pins what the tuner decides about a missed
// point besides measuring it once under concurrency (TestMeasuredHammer):
// a failed measurement leaves the point free for a retry, a point the
// store already holds is never queued, and a closed tuner drops
// requests.
func TestTunerOwnsItsRequests(t *testing.T) {
	model, err := sim.Profile("laptop")
	if err != nil {
		t.Fatal(err)
	}
	topo := sim.MustUniformHier(4, sim.LevelDim{Name: "node", Arity: 2})
	req := func(cl coll.Collective, bytes int) measureReq {
		e := coll.Env{Size: topo.Size(), Bytes: bytes, Model: model, Hop: sim.HopNet}
		return measureReq{key: tuneKeyFor(cl, e, topoFingerprint(topo), ""), cl: cl, env: e, model: model, topo: topo}
	}

	t.Run("failure is retried", func(t *testing.T) {
		store := tune.NewStore()
		tr := NewTuner(store)
		defer tr.Close()
		r := req(coll.CollNeighborAlltoall, 64) // not expressible, so not measurable
		for want := int64(1); want <= 2; want++ {
			tr.request(r)
			tr.Drain()
			if got := tr.Errors(); got != want {
				t.Fatalf("after request %d: %d errors, want %d", want, got, want)
			}
		}
		if store.Len() != 0 {
			t.Fatalf("a failed measurement stored %d entries", store.Len())
		}
	})

	t.Run("cached point is not queued", func(t *testing.T) {
		store := tune.NewStore()
		r := req(coll.CollBcast, 64)
		store.Put(r.key, tune.Entry{Algorithm: "binomial", WinnerPs: 1})
		tr := NewTuner(store)
		defer tr.Close()
		tr.request(r)
		tr.Drain()
		st := store.Stats()
		if st.Measured != 1 || tr.Errors() != 0 {
			t.Fatalf("measured %d times (errors %d), want only the Put", st.Measured, tr.Errors())
		}
		if st.Hits != 0 || st.Misses != 0 {
			t.Fatalf("the cached-point probe counted %d hits, %d misses", st.Hits, st.Misses)
		}
	})

	t.Run("closed tuner drops requests", func(t *testing.T) {
		store := tune.NewStore()
		tr := NewTuner(store)
		tr.Close()
		tr.request(req(coll.CollBcast, 64))
		tr.mu.Lock()
		queued, inflight := len(tr.queue), len(tr.inflight)
		tr.mu.Unlock()
		if queued != 0 || inflight != 0 || store.Len() != 0 {
			t.Fatalf("closed tuner kept %d queued, %d in flight, %d stored", queued, inflight, store.Len())
		}
	})
}
