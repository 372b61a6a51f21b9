package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/workload"
)

// ParallelRun is the outcome of one configuration's query set executed
// across a worker pool: per-query results aligned with the query slice, the
// aggregate wall time, and the shared estimate cache's counters.
type ParallelRun struct {
	Name    string
	Workers int
	Results []engine.Result
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

// phaseGetters maps the engine's time decomposition (Eq. 7: T_P, T_I, T_R,
// T_E) to labelled accessors for percentile reporting.
var phaseGetters = []struct {
	name string
	get  func(engine.Result) time.Duration
}{
	{"plan", func(r engine.Result) time.Duration { return r.PlanTime }},
	{"infer", func(r engine.Result) time.Duration { return r.InferTime }},
	{"reopt", func(r engine.Result) time.Duration { return r.ReoptTime }},
	{"exec", func(r engine.Result) time.Duration { return r.ExecTime }},
	{"total", func(r engine.Result) time.Duration { return r.Total() }},
}

// PhaseTable renders per-phase latency percentiles of the run.
func (r ParallelRun) PhaseTable() *Table {
	t := &Table{
		Title: fmt.Sprintf("%s: %d queries, %d workers, wall %s, %.1f q/s, cache hit %.0f%%",
			r.Name, len(r.Results), r.Workers, r.Wall.Round(time.Millisecond), r.QPS(), r.HitRate()*100),
		Header: []string{"phase", "p50", "p90", "p99"},
	}
	for _, ph := range phaseGetters {
		vals := make([]float64, len(r.Results))
		for i, res := range r.Results {
			vals[i] = ph.get(res).Seconds()
		}
		t.AddRow(ph.name, FmtDur(Percentile(vals, 50)), FmtDur(Percentile(vals, 90)), FmtDur(Percentile(vals, 99)))
	}
	return t
}

// RunParallelWorkload plans and executes every query with one configuration
// across a pool of workers goroutines (GOMAXPROCS when workers <= 0). The
// configuration's estimator is shared by all workers behind a read-through
// estimate cache; everything else — Timed wrapper, re-optimization
// controller, executor context — is allocated per query by the engine, so
// results are identical to a serial run regardless of worker count or
// scheduling. So is the error: the first failure stops the pool, and the
// lowest-index failure is returned, which is the query a serial run
// would have failed on.
func RunParallelWorkload(db *storage.Database, queries []*query.Query, cfg engine.Config, workers int) (ParallelRun, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	cache := cardest.NewCache(cfg.Estimator, nil, 0)
	cfg.Estimator = cache
	eng := engine.New(db)
	results := make([]engine.Result, len(queries))
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
		r, err := eng.Execute(queries[i], cfg)
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

// ParallelBenchResult compares serial against parallel execution of the
// same workload for representative configurations.
type ParallelBenchResult struct {
	Label   string
	Workers int
	Serial  []ParallelRun
	Par     []ParallelRun
}

// ParallelBench executes the Join-low test set serially and with a worker
// pool for the PostgreSQL, LPCE-I, and LPCE-R configurations, reporting
// aggregate throughput and per-phase latency percentiles. The set is cycled
// until the workload holds at least max(8*workers, 48) queries — a served
// workload repeats queries, which both gives the pool enough work to
// amortize goroutine startup and lets the shared estimate cache absorb the
// recurring plans. It is the demonstration behind the `-parallel` flag of
// cmd/lpce-bench.
func ParallelBench(e *Env, workers int) (*ParallelBenchResult, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	base := e.JoinLow
	if len(base) == 0 {
		return nil, fmt.Errorf("parallel bench: empty test set")
	}
	target := 8 * workers
	if target < 48 {
		target = 48
	}
	wl := make([]*query.Query, 0, target+len(base))
	for len(wl) < target {
		wl = append(wl, base...)
	}
	want := map[string]bool{"PostgreSQL": true, "LPCE-I": true, "LPCE-R": true}
	res := &ParallelBenchResult{
		Label:   fmt.Sprintf("%s x%d", e.JoinLowLabel, len(wl)/len(base)),
		Workers: workers,
	}
	for _, rc := range e.Configs() {
		if !want[rc.Name] {
			continue
		}
		serial, err := RunParallelWorkload(e.DB, wl, rc.Cfg, 1)
		if err != nil {
			return nil, fmt.Errorf("%s serial: %w", rc.Name, err)
		}
		serial.Name = rc.Name
		par, err := RunParallelWorkload(e.DB, wl, rc.Cfg, workers)
		if err != nil {
			return nil, fmt.Errorf("%s parallel: %w", rc.Name, err)
		}
		par.Name = rc.Name
		res.Serial = append(res.Serial, serial)
		res.Par = append(res.Par, par)
	}
	return res, nil
}

// Render renders the throughput comparison and the parallel runs' per-phase
// percentiles.
func (r ParallelBenchResult) Render() string {
	var b strings.Builder
	t := &Table{
		Title:  fmt.Sprintf("Concurrent workload execution (%s, %d workers)", r.Label, r.Workers),
		Header: []string{"config", "serial q/s", "parallel q/s", "speedup", "cache hit%"},
	}
	for i := range r.Serial {
		s, p := r.Serial[i], r.Par[i]
		speedup := 0.0
		if s.QPS() > 0 {
			speedup = p.QPS() / s.QPS()
		}
		t.AddRow(s.Name, FmtF(s.QPS()), FmtF(p.QPS()), FmtF(speedup), FmtPct(p.HitRate()))
	}
	b.WriteString(t.String())
	for _, p := range r.Par {
		b.WriteString("\n")
		b.WriteString(p.PhaseTable().String())
	}
	return b.String()
}
