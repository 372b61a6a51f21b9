package engine

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/workload"
)

// ParallelRun is the outcome of one configuration's query set executed
// across a worker pool: per-query results aligned with the query slice, the
// aggregate wall time, and the shared estimate cache's counters.
type ParallelRun struct {
	Workers int
	Results []Result
	Wall    time.Duration
	// CacheHits and CacheMisses are the shared cardinality-estimate cache's
	// counters over the whole run (initial optimizations and replans).
	CacheHits   int64
	CacheMisses int64
}

// QPS returns the aggregate throughput in queries per second.
func (r ParallelRun) QPS() float64 {
	if r.Wall <= 0 {
		return 0
	}
	return float64(len(r.Results)) / r.Wall.Seconds()
}

// HitRate returns the estimate cache's hit fraction, NaN-free (0 when the
// cache was never consulted).
func (r ParallelRun) HitRate() float64 {
	total := r.CacheHits + r.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(r.CacheHits) / float64(total)
}

// ExecuteAll plans and executes every query with one configuration across
// a pool of workers goroutines (GOMAXPROCS when workers <= 0). The
// configuration's estimator is shared by all workers behind a read-through
// estimate cache; everything else — Timed wrapper, re-optimization
// controller, executor context — is allocated per query, so results are
// identical to a serial run regardless of worker count or scheduling. So
// is the error: the first failure stops the pool, and the lowest-index
// failure is returned, which is the query a serial run would have failed
// on.
func (e *Engine) ExecuteAll(queries []*query.Query, cfg Config, workers int) (ParallelRun, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := cardest.NewCache(cfg.Estimator, nil, 0)
	cfg.Estimator = cache
	results := make([]Result, len(queries))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	start := time.Now()
	errs := workload.RunEach(ctx, len(queries), workers, func(i int) error {
		ok := false
		defer func() {
			if !ok { // an error or a panic
				cancel()
			}
		}()
		r, err := e.Execute(queries[i], cfg)
		if err != nil {
			return fmt.Errorf("query %d: %w", i, err)
		}
		results[i], ok = r, true
		return nil
	})
	for _, err := range errs {
		if err != nil {
			return ParallelRun{}, err
		}
	}
	hits, misses := cache.Stats()
	return ParallelRun{
		Workers: workers, Results: results, Wall: time.Since(start),
		CacheHits: hits, CacheMisses: misses,
	}, nil
}
