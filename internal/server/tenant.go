package server

import (
	"math"
	"sync"
	"time"
)

// maxTenantBuckets bounds the limiter's bucket map. A client inventing
// a fresh X-Tenant value per request would otherwise grow the map
// without bound; past the cap, fully-refilled (idle) buckets are
// pruned, which cannot hurt a well-behaved tenant — a full bucket
// rebuilt from scratch admits exactly the same traffic.
const maxTenantBuckets = 4096

// tenantLimiter is a per-tenant token bucket: each tenant (the
// X-Tenant request header, "default" when absent) accrues qps tokens
// per second up to burst, and each admitted request spends one. It is
// the service's fairness layer — one chatty tenant exhausts its own
// bucket, not the worker pools every tenant shares.
type tenantLimiter struct {
	qps   float64
	burst float64

	mu      sync.Mutex
	buckets map[string]*tenantBucket
}

// tenantBucket is one tenant's refillable token balance.
type tenantBucket struct {
	tokens float64
	last   time.Time
}

// newTenantLimiter builds a limiter admitting qps requests per second
// per tenant with the given burst capacity (New defaults it to at least
// 1 token).
func newTenantLimiter(qps float64, burst int) *tenantLimiter {
	return &tenantLimiter{
		qps:     qps,
		burst:   float64(burst),
		buckets: make(map[string]*tenantBucket),
	}
}

// allow spends one token from tenant's bucket. When the bucket is
// empty it reports false plus how long until the next token accrues —
// the Retry-After the handler should answer with.
func (l *tenantLimiter) allow(tenant string, now time.Time) (ok bool, retryAfter time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	b := l.buckets[tenant]
	if b == nil {
		if len(l.buckets) >= maxTenantBuckets {
			l.pruneLocked(now)
		}
		b = &tenantBucket{tokens: l.burst, last: now}
		l.buckets[tenant] = b
	} else if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens = math.Min(l.burst, b.tokens+dt*l.qps)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.qps * float64(time.Second))
	return false, wait
}

// pruneLocked drops buckets that have refilled completely — tenants
// idle long enough that forgetting them changes nothing. Caller holds
// l.mu.
func (l *tenantLimiter) pruneLocked(now time.Time) {
	for k, b := range l.buckets {
		if b.tokens+now.Sub(b.last).Seconds()*l.qps >= l.burst {
			delete(l.buckets, k)
		}
	}
}
