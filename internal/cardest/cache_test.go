package cardest

import (
	"sync"
	"sync/atomic"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/query"
)

func cacheFixtureQueries() []*query.Query {
	s := catalog.NewSchema()
	a := s.AddTable("a", catalog.PK("id"), catalog.Attr("x"))
	b := s.AddTable("b", catalog.FK("a_id", a.Column("id")))
	q1 := query.New([]*catalog.Table{a, b},
		[]query.Join{{Left: b.Column("a_id"), Right: a.Column("id")}}, nil)
	q2 := query.New([]*catalog.Table{a, b},
		[]query.Join{{Left: b.Column("a_id"), Right: a.Column("id")}},
		[]query.Predicate{{Col: a.Column("x"), Op: query.OpGT, Operand: 3}})
	return []*query.Query{q1, q2}
}

func TestCacheReadThrough(t *testing.T) {
	var calls atomic.Int64
	inner := FuncEstimator{Label: "counting", Fn: func(q *query.Query, m query.BitSet) float64 {
		calls.Add(1)
		return float64(q.Fingerprint()%1000) + float64(m)
	}}
	c := NewCache(inner)
	if c.Name() != "counting+cache" {
		t.Fatalf("name = %s", c.Name())
	}
	qs := cacheFixtureQueries()
	m := qs[0].AllTablesMask()

	first := c.EstimateSubset(qs[0], m)
	if got := c.EstimateSubset(qs[0], m); got != first {
		t.Fatalf("cached value changed: %v then %v", first, got)
	}
	if calls.Load() != 1 {
		t.Fatalf("inner called %d times, want 1", calls.Load())
	}
	// distinct queries have distinct fingerprints, so no false sharing
	if c.EstimateSubset(qs[1], m); calls.Load() != 2 {
		t.Fatalf("second query should miss, calls = %d", calls.Load())
	}
	if hits, misses := c.Stats(); hits != 1 || misses != 2 {
		t.Fatalf("stats = %d/%d, want 1 hit, 2 misses", hits, misses)
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d", c.Len())
	}
	c.Reset()
	if hits, misses := c.Stats(); hits != 0 || misses != 0 || c.Len() != 0 {
		t.Fatalf("reset left hits=%d misses=%d len=%d", hits, misses, c.Len())
	}
}

func TestCacheNilQueryPassthrough(t *testing.T) {
	var calls atomic.Int64
	inner := FuncEstimator{Label: "n", Fn: func(*query.Query, query.BitSet) float64 {
		calls.Add(1)
		return 7
	}}
	c := NewCache(inner)
	c.EstimateSubset(nil, 3)
	c.EstimateSubset(nil, 3)
	if calls.Load() != 2 {
		t.Fatalf("nil queries must bypass the cache, calls = %d", calls.Load())
	}
	if c.Len() != 0 {
		t.Fatal("nil query polluted the cache")
	}
}

func TestCacheConcurrent(t *testing.T) {
	inner := FuncEstimator{Label: "f", Fn: func(q *query.Query, m query.BitSet) float64 {
		return float64(m) * 2
	}}
	c := NewCache(inner)
	qs := cacheFixtureQueries()
	var wg sync.WaitGroup
	bad := atomic.Bool{}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q := qs[i%len(qs)]
				m := query.BitSet(1 + i%3)
				if c.EstimateSubset(q, m) != float64(m)*2 {
					bad.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if bad.Load() {
		t.Fatal("concurrent cached estimate diverged")
	}
	hits, misses := c.Stats()
	if hits+misses != 8*500 {
		t.Fatalf("counters lost updates: %d + %d != 4000", hits, misses)
	}
}

func TestCacheBoundedEvicts(t *testing.T) {
	var calls atomic.Int64
	inner := FuncEstimator{Label: "b", Fn: func(q *query.Query, m query.BitSet) float64 {
		calls.Add(1)
		return float64(q.Fingerprint()%997) + float64(m)
	}}
	const capacity = 64 // one entry per shard
	c := NewCacheBounded(inner, nil, capacity)
	qs := cacheFixtureQueries()

	// Insert far more distinct (query, mask) keys than the capacity admits.
	const keys = 1000
	for i := 0; i < keys; i++ {
		c.EstimateSubset(qs[i%len(qs)], query.BitSet(1+i/len(qs)))
	}
	if c.Len() > capacity {
		t.Fatalf("bounded cache holds %d entries, cap %d", c.Len(), capacity)
	}
	if c.Evictions() == 0 {
		t.Fatal("no evictions despite overflowing the capacity")
	}
	if got := c.Evictions() + int64(c.Len()); got != keys {
		t.Fatalf("evictions (%d) + live (%d) = %d, want %d inserts",
			c.Evictions(), c.Len(), got, keys)
	}

	// Evicted keys are recomputed to the same deterministic value: the
	// bounded cache must agree with an unbounded one on every estimate.
	u := NewCache(inner)
	for i := 0; i < keys; i++ {
		q, m := qs[i%len(qs)], query.BitSet(1+i/len(qs))
		if bv, uv := c.EstimateSubset(q, m), u.EstimateSubset(q, m); bv != uv {
			t.Fatalf("key %d: bounded %v != unbounded %v", i, bv, uv)
		}
	}

	c.Reset()
	if c.Len() != 0 || c.Evictions() != 0 {
		t.Fatalf("reset left len=%d evictions=%d", c.Len(), c.Evictions())
	}
}

func TestCacheBoundedDeterministicEviction(t *testing.T) {
	// The same insertion sequence must leave two bounded caches in the same
	// state: identical live-key sets and eviction counts (FIFO per shard is
	// a pure function of the insertion order).
	inner := FuncEstimator{Label: "d", Fn: func(q *query.Query, m query.BitSet) float64 {
		return float64(q.Fingerprint()^uint64(m)) / 3
	}}
	qs := cacheFixtureQueries()
	run := func() (*Cache, int64) {
		c := NewCacheBounded(inner, nil, 128)
		for i := 0; i < 600; i++ {
			c.EstimateSubset(qs[i%len(qs)], query.BitSet(1+i/len(qs)))
		}
		return c, c.Evictions()
	}
	c1, ev1 := run()
	c2, ev2 := run()
	if ev1 != ev2 || c1.Len() != c2.Len() {
		t.Fatalf("eviction diverged across identical runs: %d/%d entries, %d/%d evictions",
			c1.Len(), c2.Len(), ev1, ev2)
	}
	// Replay: the same keys must hit/miss identically in both caches.
	h1, m1 := c1.Stats()
	h2, m2 := c2.Stats()
	if h1 != h2 || m1 != m2 {
		t.Fatalf("hit/miss diverged: %d/%d vs %d/%d", h1, m1, h2, m2)
	}
}

func TestCacheBoundedConcurrent(t *testing.T) {
	inner := FuncEstimator{Label: "c", Fn: func(q *query.Query, m query.BitSet) float64 {
		return float64(m) * 5
	}}
	c := NewCacheBounded(inner, nil, 32)
	qs := cacheFixtureQueries()
	var wg sync.WaitGroup
	bad := atomic.Bool{}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				q := qs[i%len(qs)]
				m := query.BitSet(1 + i%50)
				if c.EstimateSubset(q, m) != float64(m)*5 {
					bad.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if bad.Load() {
		t.Fatal("concurrent bounded cache returned a wrong value")
	}
	if c.Len() > 64 { // 32 requested -> 1 per shard, 64 shards ceiling
		t.Fatalf("bounded cache overflowed: %d entries", c.Len())
	}
}
