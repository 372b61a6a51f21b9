package cardest

import (
	"math"
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
	c := NewCache(inner, nil, 0)
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
	c := NewCache(inner, nil, 0)
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
	c := NewCache(inner, nil, 0)
	qs := cacheFixtureQueries()
	var wg sync.WaitGroup
	bad := atomic.Bool{}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Even goroutines take the stateless path, odd ones one session
			// per query.
			ests := []Estimator{c, c}
			if g%2 == 1 {
				ests = []Estimator{c.BeginQuery(qs[0]), c.BeginQuery(qs[1])}
			}
			for i := 0; i < 500; i++ {
				q := qs[i%len(qs)]
				m := query.BitSet(1 + i%3)
				if ests[i%len(qs)].EstimateSubset(q, m) != float64(m)*2 {
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
	c := NewCache(inner, nil, capacity)
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
	u := NewCache(inner, nil, 0)
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
		c := NewCache(inner, nil, 128)
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
	c := NewCache(inner, nil, 32)
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

// countingSessions is a SessionEstimator that counts the sessions it opens
// and the calls on each path. Both paths answer sessionValue, so a cache
// that mixes them must still agree with either one bit for bit.
type countingSessions struct {
	begun, stateless, sessionCalls atomic.Int64
}

func sessionValue(q *query.Query, m query.BitSet) float64 {
	return float64(q.Fingerprint()%997) + float64(m)/7
}

func (c *countingSessions) Name() string { return "counting" }

func (c *countingSessions) EstimateSubset(q *query.Query, m query.BitSet) float64 {
	c.stateless.Add(1)
	return sessionValue(q, m)
}

func (c *countingSessions) BeginQuery(q *query.Query) Estimator {
	c.begun.Add(1)
	return FuncEstimator{Label: "counting", Fn: func(sq *query.Query, m query.BitSet) float64 {
		if sq != q {
			panic("session used for another query")
		}
		c.sessionCalls.Add(1)
		return sessionValue(q, m)
	}}
}

// TestCacheSessionMatchesStateless: estimates through cache sessions equal
// the stateless path bit for bit in any call order, mixed with stateless
// calls on the same cache, and under eviction.
func TestCacheSessionMatchesStateless(t *testing.T) {
	qs := cacheFixtureQueries()
	const keys = 300
	orders := [][]query.BitSet{make([]query.BitSet, keys), make([]query.BitSet, keys), make([]query.BitSet, keys)}
	for i := 0; i < keys; i++ {
		orders[0][i] = query.BitSet(1 + i)
		orders[1][i] = query.BitSet(keys - i)
		orders[2][i] = query.BitSet(1 + (i*181)%keys) // 181 is coprime to 300
	}
	for _, capacity := range []int{0, 64} {
		inner := &countingSessions{}
		c := NewCache(inner, nil, capacity)
		for round, order := range orders {
			for _, q := range qs {
				s := c.BeginQuery(q)
				for i, m := range order {
					var got float64
					if i%3 == round { // interleave the stateless path
						got = c.EstimateSubset(q, m)
					} else {
						got = s.EstimateSubset(q, m)
					}
					if want := sessionValue(q, m); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("capacity %d, round %d, mask %d: %v, want %v", capacity, round, m, got, want)
					}
				}
			}
		}
		if capacity > 0 && (c.Evictions() == 0 || c.Len() > capacity) {
			t.Fatalf("capacity %d: %d evictions, %d live entries", capacity, c.Evictions(), c.Len())
		}
		hits, misses := c.Stats()
		if total := int64(len(orders) * len(qs) * keys); hits+misses != total {
			t.Fatalf("capacity %d: %d hits + %d misses, want %d lookups", capacity, hits, misses, total)
		}
	}
}

// TestCacheSessionOpensInnerLazily: a cold search opens exactly one inner
// session and sends every miss to it; a search that only hits opens none.
func TestCacheSessionOpensInnerLazily(t *testing.T) {
	q := cacheFixtureQueries()[0]
	inner := &countingSessions{}
	c := NewCache(inner, nil, 0)
	search := func() {
		s := c.BeginQuery(q)
		for m := query.BitSet(1); m <= 40; m++ {
			s.EstimateSubset(q, m)
		}
	}
	search()
	if b, st, sc := inner.begun.Load(), inner.stateless.Load(), inner.sessionCalls.Load(); b != 1 || st != 0 || sc != 40 {
		t.Fatalf("cold search: %d sessions, %d stateless calls, %d session calls; want 1, 0, 40", b, st, sc)
	}
	search()
	if b, sc := inner.begun.Load(), inner.sessionCalls.Load(); b != 1 || sc != 40 {
		t.Fatalf("warm search opened %d more sessions and made %d more calls, want 0 and 0", b-1, sc-40)
	}
	if hits, misses := c.Stats(); hits != 40 || misses != 40 {
		t.Fatalf("stats = %d/%d, want 40 hits, 40 misses", hits, misses)
	}
}
