package experiments

import (
	"context"
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/testutil"
)

// TestParallelMatchesSerial is the estimator-concurrency contract the
// server's shared per-tenant caches rely on: executing the workload from
// many goroutines through one shared estimate cache must reproduce a serial
// run over the bare estimator exactly — same cardinality estimates, same
// chosen plans, same row counts — for a sampling data-driven estimator, the
// histogram, and the full LPCE-R re-optimization stack.
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
	eng := engine.New(e.DB)
	for _, tc := range cfgs {
		serial := make([]engine.Result, len(queries))
		for i, q := range queries {
			r, err := eng.Execute(q, tc.cfg)
			if err != nil {
				t.Fatalf("%s serial query %d: %v", tc.name, i, err)
			}
			serial[i] = r
		}
		shared := tc.cfg
		shared.Estimator = cardest.NewCache(tc.cfg.Estimator, nil, 0)
		par := make([]engine.Result, len(queries))
		for i, err := range testutil.RunEach(context.Background(), len(queries), 8, func(i int) (err error) {
			par[i], err = eng.Execute(queries[i], shared)
			return err
		}) {
			if err != nil {
				t.Fatalf("%s parallel query %d: %v", tc.name, i, err)
			}
		}
		for i := range queries {
			s, p := serial[i], par[i]
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
