package serving

import (
	"container/list"
	"hash/maphash"
	"sync"
	"sync/atomic"
	"time"
)

// CacheMetrics is a point-in-time view of a Cache's counters.
type CacheMetrics struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Expired   int64 `json:"expired"`
	Entries   int   `json:"entries"`
	Capacity  int   `json:"capacity"`
}

// Cache is a sharded LRU cache with optional per-entry TTL and a hard
// entry bound. All methods are safe for concurrent use; each shard has
// its own lock, so unrelated keys rarely contend.
//
// A TTL of zero (or negative) disables expiry; entries then live until
// evicted by the LRU bound.
type Cache[V any] struct {
	shards []cacheShard[V]
	seed   maphash.Seed
	ttl    time.Duration
	cap    int

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	expired   atomic.Int64

	// now is replaceable by tests to exercise TTL deterministically.
	now func() time.Time
}

type cacheShard[V any] struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry[V any] struct {
	key    string
	val    V
	stored time.Time
}

// cacheShards is the shard count for caches large enough to split;
// small caches use a single shard so the LRU bound stays exact.
const cacheShards = 16

// NewCache returns a cache holding at most capacity entries, expiring
// them ttl after insertion (ttl <= 0 means no expiry). Capacities
// below 1 are raised to 1.
func NewCache[V any](capacity int, ttl time.Duration) *Cache[V] {
	if capacity < 1 {
		capacity = 1
	}
	n := cacheShards
	if capacity < 4*cacheShards {
		n = 1 // exact LRU for small caches
	}
	c := &Cache[V]{
		shards: make([]cacheShard[V], n),
		seed:   maphash.MakeSeed(),
		ttl:    ttl,
		cap:    capacity,
		now:    time.Now,
	}
	// Split the capacity exactly: the first capacity%n shards hold one
	// more entry, so the shards together hold at most capacity.
	for i := range c.shards {
		c.shards[i].cap = capacity / n
		if i < capacity%n {
			c.shards[i].cap++
		}
		c.shards[i].order = list.New()
		c.shards[i].items = make(map[string]*list.Element)
	}
	return c
}

func (c *Cache[V]) shard(key string) *cacheShard[V] {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	return &c.shards[maphash.String(c.seed, key)%uint64(len(c.shards))]
}

// Get returns the value cached under key, refreshing its recency.
// Expired entries are removed and reported as misses.
func (c *Cache[V]) Get(key string) (V, bool) {
	var zero V
	s := c.shard(key)
	s.mu.Lock()
	el, ok := s.items[key]
	if !ok {
		s.mu.Unlock()
		c.misses.Add(1)
		return zero, false
	}
	ent := el.Value.(*cacheEntry[V])
	if c.ttl > 0 && c.now().Sub(ent.stored) > c.ttl {
		s.order.Remove(el)
		delete(s.items, key)
		s.mu.Unlock()
		c.expired.Add(1)
		c.misses.Add(1)
		return zero, false
	}
	s.order.MoveToFront(el)
	v := ent.val
	s.mu.Unlock()
	c.hits.Add(1)
	return v, true
}

// Set stores val under key, evicting the least recently used entry of
// the key's shard when the shard is full.
func (c *Cache[V]) Set(key string, val V) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.items[key]; ok {
		ent := el.Value.(*cacheEntry[V])
		ent.val = val
		ent.stored = c.now()
		s.order.MoveToFront(el)
		s.mu.Unlock()
		return
	}
	s.items[key] = s.order.PushFront(&cacheEntry[V]{key: key, val: val, stored: c.now()})
	var evicted int64
	for s.order.Len() > s.cap {
		oldest := s.order.Back()
		s.order.Remove(oldest)
		delete(s.items, oldest.Value.(*cacheEntry[V]).key)
		evicted++
	}
	s.mu.Unlock()
	if evicted > 0 {
		c.evictions.Add(evicted)
	}
}

// Len reports the number of live entries across all shards.
func (c *Cache[V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += s.order.Len()
		s.mu.Unlock()
	}
	return n
}

// Each calls fn with every cached value, expired or not, one shard at a
// time under its lock: fn must not call back into the cache.
func (c *Cache[V]) Each(fn func(V)) {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		for el := s.order.Front(); el != nil; el = el.Next() {
			fn(el.Value.(*cacheEntry[V]).val)
		}
		s.mu.Unlock()
	}
}

// Purge drops every entry. Counters are kept.
func (c *Cache[V]) Purge() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.order.Init()
		clear(s.items)
		s.mu.Unlock()
	}
}

// Metrics returns the cache counters and current size.
func (c *Cache[V]) Metrics() CacheMetrics {
	return CacheMetrics{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Expired:   c.expired.Load(),
		Entries:   c.Len(),
		Capacity:  c.cap,
	}
}
