package server

import (
	"container/list"
	"sync"
)

// cacheKey identifies one cacheable answer: the query's fingerprint,
// the tuning-store generation a measured-policy run executed against
// (0 for every other policy), and whether it is the /v1/price estimate
// rather than the /v1/run result of that query.
type cacheKey struct {
	fp    string
	gen   uint64
	price bool
}

// rawKey identifies one exact request body on one endpoint: the SHA-256
// of its bytes and whether it was sent to /v1/price.
type rawKey struct {
	sum   [32]byte
	price bool
}

// cacheEntry is one key's answer. While it is in flight, done is open
// and elem is nil; once resident, done is closed and elem is its place
// on the LRU list. body (the encoded answer) and err are written once,
// under the cache lock, before done closes.
type cacheEntry struct {
	key  cacheKey
	raw  rawKey // the body spelling that aliases the entry, if any
	done chan struct{}
	elem *list.Element
	body []byte
	err  error
}

// outcome is how a request was answered; its value is the X-Cache
// response header.
type outcome string

const (
	hit    outcome = "hit"       // a resident answer
	lead   outcome = "miss"      // this request computes the answer
	follow outcome = "coalesced" // joined an identical in-flight computation
)

// cache is the result cache and the single-flight in one: a key is new,
// in flight or resident, and one lookup under one lock says which. A
// key is resident exactly when its computation succeeded, so a request
// arriving after the leader finished hits. Only resident entries count
// toward cap; in-flight ones are never evicted. The answers are encoded
// bytes, immutable once published, and one raw body aliases each. (The
// standard library has neither an LRU nor a single-flight, and the
// repository takes no third-party dependencies.)
type cache struct {
	mu      sync.Mutex
	cap     int
	entries map[cacheKey]*cacheEntry
	aliases map[rawKey]*cacheEntry // at most one per resident entry
	lru     *list.List             // resident entries, front = most recently used
}

func newCache(capacity int) *cache {
	return &cache{cap: capacity, entries: make(map[cacheKey]*cacheEntry),
		aliases: make(map[rawKey]*cacheEntry), lru: list.New()}
}

// lookup returns the resident entry raw aliases, moved to the front, or nil.
func (c *cache) lookup(raw rawKey) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.aliases[raw]
	if e != nil {
		c.lru.MoveToFront(e.elem)
	}
	return e
}

// join looks key up once. A resident entry is a hit, moves to the
// front and takes raw (unless zero) as its one alias; an in-flight one
// is followed; otherwise join registers a new in-flight entry for raw,
// and the caller leads: it must call finish.
func (c *cache) join(key cacheKey, raw rawKey) (*cacheEntry, outcome) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.elem == nil {
			return e, follow
		}
		c.lru.MoveToFront(e.elem)
		if raw != (rawKey{}) {
			delete(c.aliases, e.raw)
			e.raw, c.aliases[raw] = raw, e
		}
		return e, hit
	}
	e := &cacheEntry{key: key, raw: raw, done: make(chan struct{})}
	c.entries[key] = e
	return e, lead
}

// finish publishes the leader's outcome and wakes its followers. A
// success becomes resident under its alias, evicting least recently used
// entries past cap; a failure is forgotten, so the next request leads.
func (c *cache) finish(e *cacheEntry, body []byte, err error) {
	c.mu.Lock()
	e.body, e.err = body, err
	if err != nil {
		delete(c.entries, e.key)
	} else {
		e.elem = c.lru.PushFront(e)
		if e.raw != (rawKey{}) {
			c.aliases[e.raw] = e
		}
		for c.lru.Len() > c.cap {
			old := c.lru.Remove(c.lru.Back()).(*cacheEntry)
			delete(c.entries, old.key)
			delete(c.aliases, old.raw)
		}
	}
	c.mu.Unlock()
	close(e.done)
}

// len reports the resident entry count (a /metrics gauge).
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
