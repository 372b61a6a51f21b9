package cardest

import (
	"sync"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
)

// cacheShards is the fixed shard count of the estimate cache. Sharding
// keeps lock contention negligible when many workers consult the cache at
// once: keys are spread by hash, so two concurrent estimates rarely touch
// the same mutex.
const cacheShards = 64

type cacheKey struct {
	fp   uint64
	mask query.BitSet
}

type cacheShard struct {
	mu sync.RWMutex
	m  map[cacheKey]float64
	// order is the shard's keys in insertion order, maintained only when the
	// cache is bounded; the oldest insertion is evicted first.
	order []cacheKey
}

// Cache is a thread-safe sharded read-through cardinality-estimate cache
// keyed by query fingerprint + subset mask. Wrapping an estimator in a
// Cache makes repeated estimates of the same (query, subset) pair — from
// re-optimizations of one query or from many concurrent workers running
// the same workload — cost one map lookup instead of a model inference.
//
// A cache miss computes the inner estimate outside any lock, so a slow
// inner estimator never blocks readers of other keys; two workers racing
// on the same cold key may both compute it, which is harmless because
// every estimator in the repository is deterministic per (query, subset).
//
// A bounded cache (NewCacheBounded) evicts deterministically — per shard,
// oldest insertion first — once a shard reaches its capacity. Eviction
// never changes results: an evicted estimate is simply recomputed by the
// deterministic inner estimator on its next use, so bounded and unbounded
// runs stay byte-identical. Long-running processes (the serving subsystem)
// must bound their caches or leak memory across millions of distinct query
// fingerprints.
type Cache struct {
	Inner  Estimator
	shards [cacheShards]cacheShard
	// shardCap bounds each shard's entry count; 0 means unbounded.
	shardCap int
	// hits and misses live on the obs metrics registry (standalone counters
	// when the cache was built without one), so every counter in the
	// repository is read through one API.
	hits      *obs.Counter
	misses    *obs.Counter
	evictions *obs.Counter
}

// NewCache wraps inner in an empty cache with standalone hit/miss counters.
func NewCache(inner Estimator) *Cache {
	return NewCacheWithMetrics(inner, nil)
}

// NewCacheWithMetrics wraps inner in an empty unbounded cache whose hit/miss
// counters are interned in reg as "cardest.cache.hits" /
// "cardest.cache.misses", so they appear in the registry's snapshot
// alongside every other metric. A nil registry falls back to standalone
// counters.
func NewCacheWithMetrics(inner Estimator, reg *obs.Registry) *Cache {
	return NewCacheBounded(inner, reg, 0)
}

// NewCacheBounded is NewCacheWithMetrics with a total entry capacity: the
// capacity is split evenly across the shards (rounded up, minimum one entry
// per shard), and a full shard evicts its oldest insertion before admitting
// a new key. Evictions are counted in reg as "cardest.cache.evictions".
// capacity <= 0 means unbounded.
func NewCacheBounded(inner Estimator, reg *obs.Registry, capacity int) *Cache {
	c := &Cache{Inner: inner}
	if capacity > 0 {
		c.shardCap = (capacity + cacheShards - 1) / cacheShards
	}
	if reg != nil {
		c.hits = reg.Counter("cardest.cache.hits")
		c.misses = reg.Counter("cardest.cache.misses")
		c.evictions = reg.Counter("cardest.cache.evictions")
	} else {
		c.hits = &obs.Counter{}
		c.misses = &obs.Counter{}
		c.evictions = &obs.Counter{}
	}
	for i := range c.shards {
		c.shards[i].m = make(map[cacheKey]float64)
	}
	return c
}

// Name implements Estimator.
func (c *Cache) Name() string { return c.Inner.Name() + "+cache" }

// EstimateSubset implements Estimator with read-through caching.
func (c *Cache) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	if q == nil {
		return c.Inner.EstimateSubset(q, mask)
	}
	k := cacheKey{fp: q.Fingerprint(), mask: mask}
	s := &c.shards[(k.fp^uint64(mask)*0x9e3779b97f4a7c15)%cacheShards]
	s.mu.RLock()
	v, ok := s.m[k]
	s.mu.RUnlock()
	if ok {
		c.hits.Inc()
		return v
	}
	v = c.Inner.EstimateSubset(q, mask)
	c.misses.Inc()
	s.mu.Lock()
	if _, exists := s.m[k]; !exists {
		if c.shardCap > 0 {
			for len(s.m) >= c.shardCap {
				oldest := s.order[0]
				s.order = s.order[1:]
				delete(s.m, oldest)
				c.evictions.Inc()
			}
			// Re-slicing leaves evicted keys pinned in the backing array;
			// compact once the dead prefix dominates.
			if cap(s.order) > 2*c.shardCap && len(s.order) <= c.shardCap {
				s.order = append(make([]cacheKey, 0, c.shardCap), s.order...)
			}
			s.order = append(s.order, k)
		}
		s.m[k] = v
	}
	s.mu.Unlock()
	return v
}

// Stats returns the accumulated hit and miss counters.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Value(), c.misses.Value()
}

// Evictions returns the number of entries evicted since creation or Reset.
func (c *Cache) Evictions() int64 { return c.evictions.Value() }

// Len returns the number of cached estimates.
func (c *Cache) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.RLock()
		n += len(s.m)
		s.mu.RUnlock()
	}
	return n
}

// Reset discards every cached estimate and zeroes the counters.
func (c *Cache) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.m = make(map[cacheKey]float64)
		s.order = nil
		s.mu.Unlock()
	}
	c.hits.Reset()
	c.misses.Reset()
	c.evictions.Reset()
}

var _ Estimator = (*Cache)(nil)
