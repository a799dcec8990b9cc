package server

import (
	"errors"
	"sync"
	"testing"
)

// mustJoin calls c.join and fails the test unless the outcome is want.
func mustJoin(t *testing.T, c *cache, key cacheKey, want outcome) *cacheEntry {
	t.Helper()
	e, o := c.join(key)
	if o != want {
		t.Fatalf("join(%v) = %s, want %s", key, o, want)
	}
	return e
}

// TestCacheFailureIsForgotten: a failed leader hands its error to its
// followers, leaves nothing resident, and the next join leads again.
func TestCacheFailureIsForgotten(t *testing.T) {
	c := newCache(4)
	k := cacheKey{fp: "a"}
	leader := mustJoin(t, c, k, lead)
	follower := mustJoin(t, c, k, follow)
	if follower != leader {
		t.Fatal("a follower must wait on the leader's entry")
	}
	boom := errors.New("boom")
	c.finish(leader, nil, boom)
	<-follower.done
	if !errors.Is(follower.err, boom) {
		t.Fatalf("follower err %v, want %v", follower.err, boom)
	}
	if n := c.len(); n != 0 {
		t.Fatalf("len %d after a failure, want 0", n)
	}
	if e := mustJoin(t, c, k, lead); e == leader {
		t.Fatal("the retry reused the failed entry")
	}
}

// TestCacheFinishIsCaching: finishing is caching, so every request that
// joins once the leader is done hits, with no window between the two.
// Each follower joins again the moment it wakes.
func TestCacheFinishIsCaching(t *testing.T) {
	c := newCache(4)
	k := cacheKey{fp: "a", gen: 3}
	leader := mustJoin(t, c, k, lead)
	const followers = 16
	var wg sync.WaitGroup
	outcomes := make([]outcome, followers)
	for i := range followers {
		e := mustJoin(t, c, k, follow)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-e.done
			_, outcomes[i] = c.join(k)
		}()
	}
	c.finish(leader, "result", nil)
	if e := mustJoin(t, c, k, hit); e.val != "result" {
		t.Fatalf("hit served %v", e.val)
	}
	wg.Wait()
	for i, o := range outcomes {
		if o != hit {
			t.Errorf("follower %d rejoined as %s, want hit", i, o)
		}
	}
	// The same fingerprint under another generation or endpoint is
	// another key.
	mustJoin(t, c, cacheKey{fp: "a", gen: 4}, lead)
	mustJoin(t, c, cacheKey{fp: "a", gen: 3, price: true}, lead)
}

// TestCacheEvictsOnlyResident: in-flight entries neither count toward
// the capacity nor get evicted, and eviction takes the least recently
// used resident entry.
func TestCacheEvictsOnlyResident(t *testing.T) {
	c := newCache(2)
	a, b, x, d := cacheKey{fp: "a"}, cacheKey{fp: "b"}, cacheKey{fp: "x"}, cacheKey{fp: "d"}
	c.finish(mustJoin(t, c, a, lead), "A", nil)
	c.finish(mustJoin(t, c, b, lead), "B", nil)
	inflight := mustJoin(t, c, x, lead)
	if n := c.len(); n != 2 {
		t.Fatalf("len %d with two resident and one in flight, want 2", n)
	}
	mustJoin(t, c, a, hit) // a is now the most recently used
	c.finish(mustJoin(t, c, d, lead), "D", nil)
	if n := c.len(); n != 2 {
		t.Fatalf("len %d after an eviction, want 2", n)
	}
	mustJoin(t, c, a, hit)
	mustJoin(t, c, d, hit)
	if mustJoin(t, c, x, follow) != inflight {
		t.Fatal("the in-flight entry was evicted")
	}
	mustJoin(t, c, b, lead) // the least recently used resident entry went
	c.finish(inflight, "X", nil)
	mustJoin(t, c, x, hit)
	if n := c.len(); n != 2 {
		t.Fatalf("len %d, want the capacity 2", n)
	}
}
