// Package qcache provides the sharded, bounded LRU cache behind QPIAD's
// online performance layer. Autonomous sources penalize every extra query
// and transferred tuple, so the mediator must never redo work it has
// already paid for: qcache memoizes both full mediator answers (keyed by
// source, query and config fingerprint) and NBC prediction distributions
// (keyed by target attribute and evidence combination).
//
// Design:
//
//   - Sharded: keys hash (FNV-1a) to one of N shards, each with its own
//     mutex, map and LRU list, so concurrent readers on different keys do
//     not serialize on one lock.
//   - Bounded: each shard evicts its least-recently-used entry once it
//     exceeds capacity/shards entries; the cache as a whole never holds
//     more than Capacity entries.
//   - Singleflight: Do collapses concurrent computations of the same key —
//     one caller runs the function, the rest wait and share the result,
//     so a thundering herd of identical queries costs one source round
//     trip. Errors are returned to every waiter but never cached.
//   - Invalidation: Delete removes one key, DeletePrefix removes every key
//     with a given prefix (the mediator prefixes keys with the source name
//     so re-registering a source drops exactly its entries), Purge drops
//     everything.
//
// All counters (hits, misses, evictions, coalesced waiters) are atomic and
// surfaced via Stats for the /metrics endpoint and the -stats CLI flag.
package qcache

import (
	"container/list"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Config tunes a Cache.
type Config struct {
	// Capacity bounds the total number of entries across all shards.
	// <= 0 means the default of 1024.
	Capacity int
	// Shards is the number of independent lock domains, rounded up to a
	// power of two. <= 0 means the default of 8.
	Shards int
	// FreshTTL bounds how long an entry answers Get/Do. Older entries are
	// treated as misses (counted under Expired) but are NOT deleted: they
	// remain readable through GetStale until evicted, which is what the
	// mediator's stale-cache fallback serves when a source's circuit
	// breaker is open. 0 means entries never expire (the pre-TTL behavior).
	FreshTTL time.Duration
	// Clock supplies the time entries are stamped and aged with. Nil means
	// the wall clock; tests inject a manual clock for deterministic
	// expiry.
	Clock func() time.Time
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	// Hits counts Get/Do calls answered from the cache.
	Hits uint64
	// Misses counts Get/Do calls that found nothing.
	Misses uint64
	// Evictions counts entries dropped by the LRU bound (not explicit
	// deletions).
	Evictions uint64
	// Coalesced counts Do callers that waited on another caller's
	// in-flight computation instead of running their own.
	Coalesced uint64
	// Expired counts Get/Do calls that found an entry older than FreshTTL
	// (treated as misses; the entry stays readable via GetStale).
	Expired uint64
	// StaleHits counts GetStale calls answered by an entry within the
	// caller's staleness bound.
	StaleHits uint64
	// Entries is the current number of cached entries.
	Entries int
}

// entry is one cached key/value pair; Element.Value holds *entry.
type entry struct {
	key string
	val any
	at  time.Time // when the value was stored (per the cache clock)
}

// call is one in-flight singleflight computation.
type call struct {
	done chan struct{}
	val  any
	err  error
}

// shard is one lock domain: a bounded LRU map plus in-flight calls.
type shard struct {
	mu       sync.Mutex
	entries  map[string]*list.Element
	lru      *list.List // front = most recently used
	inflight map[string]*call
}

// Cache is a sharded, bounded LRU cache with singleflight computation.
// The zero value is not usable; call New.
type Cache struct {
	shards   []shard
	mask     uint32
	capShard int
	freshTTL time.Duration
	clock    func() time.Time

	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
	coalesced atomic.Uint64
	expired   atomic.Uint64
	staleHits atomic.Uint64
}

// New builds a cache. Zero-value config fields resolve to the documented
// defaults.
func New(cfg Config) *Cache {
	if cfg.Capacity <= 0 {
		cfg.Capacity = 1024
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 8
	}
	n := 1
	for n < cfg.Shards {
		n <<= 1
	}
	capShard := (cfg.Capacity + n - 1) / n
	if capShard < 1 {
		capShard = 1
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	c := &Cache{shards: make([]shard, n), mask: uint32(n - 1), capShard: capShard,
		freshTTL: cfg.FreshTTL, clock: cfg.Clock}
	for i := range c.shards {
		c.shards[i].entries = make(map[string]*list.Element)
		c.shards[i].lru = list.New()
		c.shards[i].inflight = make(map[string]*call)
	}
	return c
}

// shardFor hashes the key (FNV-1a, 32-bit) to its shard.
func (c *Cache) shardFor(key string) *shard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return &c.shards[h&c.mask]
}

// fresh reports whether e is within FreshTTL at time now (always true when
// the cache has no TTL).
func (c *Cache) fresh(e *entry, now time.Time) bool {
	return c.freshTTL <= 0 || now.Sub(e.at) <= c.freshTTL
}

// Get returns the cached value for key, marking it most recently used.
// Entries older than FreshTTL are misses (counted under Expired) but stay
// in place for GetStale readers.
func (c *Cache) Get(key string) (any, bool) {
	s := c.shardFor(key)
	now := c.clock()
	s.mu.Lock()
	el, ok := s.entries[key]
	var val any
	if ok {
		e := el.Value.(*entry)
		if !c.fresh(e, now) {
			s.mu.Unlock()
			c.expired.Add(1)
			c.misses.Add(1)
			return nil, false
		}
		s.lru.MoveToFront(el)
		val = e.val
	}
	s.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return val, true
}

// GetStale returns the cached value for key regardless of FreshTTL, as
// long as its age (per the cache clock) is within maxAge; maxAge <= 0
// means any age. It returns the value, its age, and whether it was found.
// This is the mediator's stale-cache fallback read: when a source's
// circuit breaker is open, an expired answer within the relaxed staleness
// bound beats no answer.
func (c *Cache) GetStale(key string, maxAge time.Duration) (any, time.Duration, bool) {
	s := c.shardFor(key)
	now := c.clock()
	s.mu.Lock()
	el, ok := s.entries[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, 0, false
	}
	e := el.Value.(*entry)
	age := now.Sub(e.at)
	if maxAge > 0 && age > maxAge {
		s.mu.Unlock()
		c.misses.Add(1)
		return nil, 0, false
	}
	s.lru.MoveToFront(el)
	val := e.val
	s.mu.Unlock()
	c.staleHits.Add(1)
	return val, age, true
}

// Put inserts or replaces the value for key, evicting the shard's least
// recently used entry when over capacity.
func (c *Cache) Put(key string, val any) {
	s := c.shardFor(key)
	now := c.clock()
	s.mu.Lock()
	c.putLocked(s, key, val, now)
	s.mu.Unlock()
}

// putLocked inserts under the shard lock, stamping the entry with the
// cache clock. now is read by the caller before taking the lock.
func (c *Cache) putLocked(s *shard, key string, val any, now time.Time) {
	if el, ok := s.entries[key]; ok {
		e := el.Value.(*entry)
		e.val = val
		e.at = now
		s.lru.MoveToFront(el)
		return
	}
	s.entries[key] = s.lru.PushFront(&entry{key: key, val: val, at: now})
	for s.lru.Len() > c.capShard {
		oldest := s.lru.Back()
		if oldest == nil {
			break
		}
		s.lru.Remove(oldest)
		delete(s.entries, oldest.Value.(*entry).key)
		c.evictions.Add(1)
	}
}

// Do returns the cached value for key, or computes it with fn. Concurrent
// Do calls for the same key are collapsed: one caller runs fn, the rest
// wait and share its result (counted as Coalesced). A successful result is
// cached; an error is propagated to every waiter and nothing is cached —
// any pre-existing (expired) entry stays in place for GetStale readers —
// so a later call retries. A panic in fn is handled like an error, except
// that it goes on in the caller that ran fn. Entries older than FreshTTL do
// not answer Do; they count under Expired and fn recomputes.
func (c *Cache) Do(key string, fn func() (any, error)) (any, error) {
	s := c.shardFor(key)
	for {
		now := c.clock()
		s.mu.Lock()
		if el, ok := s.entries[key]; ok {
			e := el.Value.(*entry)
			if c.fresh(e, now) {
				s.lru.MoveToFront(el)
				val := e.val
				s.mu.Unlock()
				c.hits.Add(1)
				return val, nil
			}
			c.expired.Add(1)
			// fall through: recompute, leaving the stale entry readable
			// until the fresh value replaces it.
		}
		if cl, ok := s.inflight[key]; ok {
			s.mu.Unlock()
			c.coalesced.Add(1)
			<-cl.done
			if cl.err != nil {
				return nil, cl.err
			}
			return cl.val, nil
		}
		cl := &call{done: make(chan struct{})}
		s.inflight[key] = cl
		s.mu.Unlock()
		c.misses.Add(1)
		return c.lead(s, key, cl, fn)
	}
}

// lead runs fn as key's one computation and hands its outcome to the
// waiters on cl. When fn panics, the waiters get an error that names the
// panic, the slot is cleared so that a later Do runs fn afresh, and the
// panic goes on in the caller.
func (c *Cache) lead(s *shard, key string, cl *call, fn func() (any, error)) (any, error) {
	returned := false
	defer func() {
		var p any
		if !returned {
			p = recover()
			cl.val, cl.err = nil, fmt.Errorf("qcache: computing the value panicked: %v", p)
		}
		now := c.clock()
		s.mu.Lock()
		delete(s.inflight, key)
		if cl.err == nil {
			c.putLocked(s, key, cl.val, now)
		}
		s.mu.Unlock()
		close(cl.done)
		if p != nil {
			panic(p)
		}
	}()
	cl.val, cl.err = fn()
	returned = true
	return cl.val, cl.err
}

// Delete removes one key. It reports whether the key was present.
func (c *Cache) Delete(key string) bool {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.entries[key]
	if !ok {
		return false
	}
	s.lru.Remove(el)
	delete(s.entries, key)
	return true
}

// DeletePrefix removes every entry whose key starts with prefix and returns
// the number removed. The mediator keys answers as
// "source\x1equery\x1econfig", so DeletePrefix("source\x1e") invalidates
// exactly one source's answers.
func (c *Cache) DeletePrefix(prefix string) int {
	removed := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for key, el := range s.entries {
			if strings.HasPrefix(key, prefix) {
				s.lru.Remove(el)
				delete(s.entries, key)
				removed++
			}
		}
		s.mu.Unlock()
	}
	return removed
}

// Purge removes every entry (counters are preserved).
func (c *Cache) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[string]*list.Element)
		s.lru.Init()
		s.mu.Unlock()
	}
}

// Len returns the current number of entries.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.lru.Len()
		s.mu.Unlock()
	}
	return n
}

// Stats snapshots the counters.
func (c *Cache) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Coalesced: c.coalesced.Load(),
		Expired:   c.expired.Load(),
		StaleHits: c.staleHits.Load(),
		Entries:   c.Len(),
	}
}
