package experiments

import (
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/query"
)

// RunConfig names one end-to-end configuration: an estimator, optionally
// with LPCE-R re-optimization enabled.
type RunConfig struct {
	Name string
	Cfg  engine.Config
}

// Configs returns the end-to-end configurations of Table 2/Figure 12:
// PostgreSQL (histogram), the four data-driven substitutes, the three
// query-driven baselines, LPCE-I alone, and LPCE-R (LPCE-I initial +
// re-optimization).
func (e *Env) Configs() []RunConfig {
	budget := e.P.budget
	mk := func(name string, est interface {
		Name() string
		EstimateSubset(*query.Query, query.BitSet) float64
	}) RunConfig {
		return RunConfig{Name: name, Cfg: engine.Config{Estimator: est, Budget: budget}}
	}
	lpcer := RunConfig{
		Name: "LPCE-R",
		Cfg: engine.Config{
			Estimator: e.LPCEIEstimator(),
			Refiner:   e.Refiner,
			Budget:    budget,
		},
	}
	return []RunConfig{
		mk("PostgreSQL", e.Histogram),
		mk("DeepDB", e.DeepDB),
		mk("NeuroCard", e.NeuroCard),
		mk("FLAT", e.FLAT),
		mk("UAE", e.UAE),
		mk("MSCN", e.MSCN),
		mk("Flow-Loss", e.FlowLoss),
		mk("TLSTM", e.TLSTM),
		mk("LPCE-I", e.LPCEIEstimator()),
		lpcer,
	}
}

// E2EResults holds the per-query results of one configuration over a query
// set, aligned with the query slice.
type E2EResults struct {
	Name    string
	Results []engine.Result
}

// Totals returns the per-query end-to-end times in seconds.
func (r E2EResults) Totals() []float64 {
	out := make([]float64, len(r.Results))
	for i, res := range r.Results {
		out[i] = res.Total().Seconds()
	}
	return out
}

// RunEndToEnd executes every configuration over the query set. The heavy
// shared computation behind Table 2 and Figures 12–15; callers cache the
// result.
func (e *Env) RunEndToEnd(queries []*query.Query) ([]E2EResults, error) {
	eng := engine.New(e.DB)
	var out []E2EResults
	for _, rc := range e.Configs() {
		res := E2EResults{Name: rc.Name, Results: make([]engine.Result, len(queries))}
		for i, q := range queries {
			r, err := eng.Execute(q, rc.Cfg)
			if err != nil {
				return nil, err
			}
			res.Results[i] = r
		}
		out = append(out, res)
	}
	return out, nil
}

// ReductionPercentiles computes the paper's execution-time-reduction
// metric (Eq. 9) of a configuration versus the PostgreSQL baseline at the
// requested percentiles. Both slices must be aligned with the same query
// set. Higher reduction percentiles correspond to the queries a method
// improves most, so the p-th percentile of the reduction distribution is
// reported directly.
func ReductionPercentiles(postgres, method E2EResults, pcts []float64) []float64 {
	pg := postgres.Totals()
	m := method.Totals()
	reds := make([]float64, len(pg))
	for i := range pg {
		if pg[i] <= 0 {
			reds[i] = 0
			continue
		}
		reds[i] = (pg[i] - m[i]) / pg[i]
	}
	out := make([]float64, len(pcts))
	for i, p := range pcts {
		out[i] = Percentile(reds, p)
	}
	return out
}

// CollectTestSamples executes test queries with the instrumented collector
// so refinement experiments (Figure 16, Table 3) have per-node true
// cardinalities. Plans come from the LPCE-I-optimized engine to match what
// LPCE-R sees at runtime.
func (e *Env) CollectTestSamples(queries []*query.Query) []core.Sample {
	samples, _ := core.CollectSamples(e.DB, e.LPCEIEstimator(), queries, e.P.collectBudget)
	return samples
}
