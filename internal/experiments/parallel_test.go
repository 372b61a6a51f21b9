package experiments

import (
	"errors"
	"sync"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// TestParallelMatchesSerial is the tentpole correctness proof: running the
// workload across many workers must reproduce the serial run exactly —
// same cardinality estimates, same chosen plans, same row counts — for a
// sampling data-driven estimator, the histogram, and the full LPCE-R
// re-optimization stack.
func TestParallelMatchesSerial(t *testing.T) {
	e := env(t)
	queries := e.JoinLow
	if len(queries) > 4 {
		queries = queries[:4]
	}
	cfgs := []struct {
		name string
		cfg  engine.Config
	}{
		// sampling estimator: proves per-call RNG derivation makes walk
		// randomness independent of scheduling
		{"NeuroCard", engine.Config{Estimator: e.NeuroCard, Budget: e.P.budget}},
		{"PostgreSQL", engine.Config{Estimator: e.Histogram, Budget: e.P.budget}},
		// re-optimization path: replans and overlays must also be stable
		{"LPCE-R", engine.Config{Estimator: e.LPCEIEstimator(), Refiner: e.Refiner, Budget: e.P.budget}},
	}
	for _, tc := range cfgs {
		serial, err := engine.New(e.DB).ExecuteAll(queries, tc.cfg, 1)
		if err != nil {
			t.Fatalf("%s serial: %v", tc.name, err)
		}
		par, err := engine.New(e.DB).ExecuteAll(queries, tc.cfg, 8)
		if err != nil {
			t.Fatalf("%s parallel: %v", tc.name, err)
		}
		for i := range queries {
			s, p := serial.Results[i], par.Results[i]
			if s.Count != p.Count || s.TimedOut != p.TimedOut {
				t.Fatalf("%s query %d: serial count=%d timeout=%v, parallel count=%d timeout=%v",
					tc.name, i, s.Count, s.TimedOut, p.Count, p.TimedOut)
			}
			if s.Reopts != p.Reopts {
				t.Fatalf("%s query %d: serial reopts=%d, parallel reopts=%d", tc.name, i, s.Reopts, p.Reopts)
			}
			if s.EstimateCalls != p.EstimateCalls {
				t.Fatalf("%s query %d: serial estimate calls=%d, parallel=%d",
					tc.name, i, s.EstimateCalls, p.EstimateCalls)
			}
			sp, pp := s.FinalPlan.String(), p.FinalPlan.String()
			if sp != pp {
				t.Fatalf("%s query %d: plans diverge\nserial:\n%s\nparallel:\n%s", tc.name, i, sp, pp)
			}
		}
	}
}

// TestParallelCacheSharing checks the shared cache actually absorbs repeated
// estimates: running the same query list twice in one workload makes the
// second pass hit for every subset.
func TestParallelCacheSharing(t *testing.T) {
	e := env(t)
	qs := append(append([]*query.Query(nil), e.JoinLow[:2]...), e.JoinLow[:2]...)
	run, err := engine.New(e.DB).ExecuteAll(qs, engine.Config{Estimator: e.Histogram, Budget: e.P.budget}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if run.CacheHits == 0 {
		t.Fatal("duplicated queries produced zero cache hits")
	}
	if run.HitRate() <= 0 || run.HitRate() >= 1 {
		t.Fatalf("hit rate = %v, want in (0,1)", run.HitRate())
	}
}

// TestSharedEstimatorHammer drives one shared estimator + cache from 8
// goroutines over overlapping (query, mask) pairs. Run under -race this is
// the concurrency audit's enforcement test.
func TestSharedEstimatorHammer(t *testing.T) {
	e := env(t)
	ests := []cardest.Estimator{e.NeuroCard, e.DeepDB, e.FLAT, e.UAE, e.Histogram, e.LPCEIEstimator(), e.Oracle}
	qs := e.JoinLow
	if len(qs) > 3 {
		qs = qs[:3]
	}
	for _, est := range ests {
		cache := cardest.NewCache(est, nil, 0)
		want := make(map[*query.Query]map[query.BitSet]float64)
		for _, q := range qs {
			want[q] = make(map[query.BitSet]float64)
			for mask := query.BitSet(1); mask <= q.AllTablesMask(); mask++ {
				if q.Connected(mask) {
					want[q][mask] = est.EstimateSubset(q, mask)
				}
			}
		}
		var wg sync.WaitGroup
		errs := make(chan string, 8)
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for rep := 0; rep < 3; rep++ {
					for _, q := range qs {
						for mask, w := range want[q] {
							if got := cache.EstimateSubset(q, mask); got != w {
								select {
								case errs <- est.Name():
								default:
								}
								return
							}
						}
					}
				}
			}()
		}
		wg.Wait()
		close(errs)
		if name, ok := <-errs; ok {
			t.Fatalf("%s: concurrent estimate diverged from serial value", name)
		}
		if hits, misses := cache.Stats(); hits == 0 || misses == 0 {
			t.Fatalf("%s: cache counters hits=%d misses=%d", est.Name(), hits, misses)
		}
	}
}

// TestParallelWorkloadReturnsSerialError makes a higher-index query fail
// first: query 2's estimator panics at once, query 0's only after that. A
// serial run fails on query 0, so the parallel run must report query 0's
// failure, not whichever finished first.
func TestParallelWorkloadReturnsSerialError(t *testing.T) {
	db := testutil.TinyDB()
	qs := workload.NewGenerator(db, 5).Queries(4, 2)
	hist := histogram.NewEstimator(db)
	hiFailed := make(chan struct{})
	var once sync.Once
	est := cardest.FuncEstimator{Label: "ordered-failures", Fn: func(q *query.Query, mask query.BitSet) float64 {
		switch {
		case q == nil:
		case q.Fingerprint() == qs[2].Fingerprint():
			once.Do(func() { close(hiFailed) })
			panic("query 2")
		case q.Fingerprint() == qs[0].Fingerprint():
			select {
			case <-hiFailed:
				time.Sleep(20 * time.Millisecond) // let query 2's failure land first
			case <-time.After(5 * time.Second):
			}
			panic("query 0")
		}
		return hist.EstimateSubset(q, mask)
	}}
	_, err := engine.New(db).ExecuteAll(qs, engine.Config{Estimator: est}, 4)
	// The engine recovers each panic into its query's *engine.PanicError.
	var pe *engine.PanicError
	if !errors.As(err, &pe) || pe.Value != "query 0" {
		t.Fatalf("err = %v, want query 0's panic", err)
	}
}
