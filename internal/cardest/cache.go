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
// A bounded cache evicts deterministically — per shard, oldest insertion
// first — once a shard reaches its capacity. Eviction never changes
// results: an evicted estimate is simply recomputed by the deterministic
// inner estimator on its next use, so bounded and unbounded runs stay
// byte-identical. Long-running processes (the serving subsystem) must bound
// their caches or leak memory across millions of distinct query
// fingerprints.
//
// Cache is a SessionEstimator: a plan search through it answers hits from
// the shards and sends its misses to one inner session, opened on the
// first miss.
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

// NewCache wraps inner in an empty cache. A non-nil reg interns the
// counters as "cardest.cache.hits", "cardest.cache.misses" and
// "cardest.cache.evictions", so they appear in the registry's snapshot
// alongside every other metric; a nil reg keeps standalone counters.
// capacity bounds the total entry count: it is split evenly across the
// shards (rounded up, minimum one entry per shard), and a full shard evicts
// its oldest insertion before admitting a new key. capacity <= 0 means
// unbounded.
func NewCache(inner Estimator, reg *obs.Registry, capacity int) *Cache {
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
	s := cacheSession{c: c, q: q, fp: q.Fingerprint(), inner: c.Inner}
	return s.EstimateSubset(q, mask)
}

// BeginQuery implements SessionEstimator. The inner session is opened on
// the session's first miss, so a search that only hits opens none.
func (c *Cache) BeginQuery(q *query.Query) Estimator {
	return &cacheSession{c: c, q: q, fp: q.Fingerprint()}
}

// cacheSession is a Cache bound to one plan search over q.
type cacheSession struct {
	c  *Cache
	q  *query.Query
	fp uint64
	// inner answers misses: Inner itself on the stateless path, else Inner's
	// session, opened on the first miss.
	inner Estimator
}

func (s *cacheSession) Name() string { return s.c.Name() }

func (s *cacheSession) EstimateSubset(_ *query.Query, mask query.BitSet) float64 {
	c := s.c
	k := cacheKey{fp: s.fp, mask: mask}
	sh := &c.shards[(k.fp^uint64(mask)*0x9e3779b97f4a7c15)%cacheShards]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		c.hits.Inc()
		return v
	}
	if s.inner == nil {
		s.inner = BeginQuery(c.Inner, s.q)
	}
	v = s.inner.EstimateSubset(s.q, mask)
	c.misses.Inc()
	sh.mu.Lock()
	if _, exists := sh.m[k]; !exists {
		if c.shardCap > 0 {
			for len(sh.m) >= c.shardCap {
				oldest := sh.order[0]
				sh.order = sh.order[1:]
				delete(sh.m, oldest)
				c.evictions.Inc()
			}
			// Re-slicing leaves evicted keys pinned in the backing array;
			// compact once the dead prefix dominates.
			if cap(sh.order) > 2*c.shardCap && len(sh.order) <= c.shardCap {
				sh.order = append(make([]cacheKey, 0, c.shardCap), sh.order...)
			}
			sh.order = append(sh.order, k)
		}
		sh.m[k] = v
	}
	sh.mu.Unlock()
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

var _ SessionEstimator = (*Cache)(nil)
