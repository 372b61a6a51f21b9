package experiments

import (
	"fmt"

	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
)

// The paper's §8 lists two open directions: applying progressive
// estimation to other estimator families, and smarter re-optimization
// trigger policies. Both are implemented in this repository
// (reopt.OverlayRefiner and Policy.MinRemainingCostFrac); the experiments
// below quantify them. Every strategy re-plans from the executed sub-plans'
// exact counts, which the search seeds; they differ in how the rest is
// estimated — the base scaled by the executed error ratios
// (OverlayRefiner), or LPCE-R.
// They have no counterpart table/figure in the paper and are labelled as
// extensions.

// ExtReoptRow is one re-optimization strategy's aggregate outcome.
type ExtReoptRow struct {
	Name       string
	TotalSec   float64
	ExecSec    float64
	OverheadMs float64 // re-planning + refinement time
	Reopts     int
	Timeouts   int
}

// ExtReoptResult compares re-optimization strategies on the deep-join set:
// no re-optimization, error-ratio overlay (no learning), LPCE-R, and
// LPCE-R with the cost-aware trigger.
type ExtReoptResult struct {
	Label string
	Rows  []ExtReoptRow
}

// ExtReopt runs the comparison with LPCE-I initial estimates.
func ExtReopt(e *Env, label string, queries []*query.Query) (ExtReoptResult, error) {
	base := e.LPCEIEstimator()
	pol := reopt.DefaultPolicy()
	costAware := pol
	costAware.MinRemainingCostFrac = 0.25
	configs := []struct {
		name string
		cfg  engine.Config
	}{
		{"no reopt (LPCE-I)", engine.Config{Estimator: base, Budget: e.P.budget}},
		{"overlay reopt", engine.Config{Estimator: base, Refiner: reopt.OverlayRefiner{Base: base}, Policy: pol, Budget: e.P.budget}},
		{"LPCE-R", engine.Config{Estimator: base, Refiner: e.Refiner, Policy: pol, Budget: e.P.budget}},
		{"LPCE-R cost-aware", engine.Config{Estimator: base, Refiner: e.Refiner, Policy: costAware, Budget: e.P.budget}},
	}
	eng := engine.New(e.DB)
	var res ExtReoptResult
	res.Label = label
	for _, c := range configs {
		var row ExtReoptRow
		row.Name = c.name
		for _, q := range queries {
			r, err := eng.Execute(q, c.cfg)
			if err != nil {
				return res, err
			}
			row.TotalSec += r.Total().Seconds()
			row.ExecSec += r.ExecTime.Seconds()
			row.OverheadMs += r.ReoptTime.Seconds() * 1e3
			row.Reopts += r.Reopts
			if r.TimedOut {
				row.Timeouts++
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the comparison.
func (r ExtReoptResult) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Extension (%s): re-optimization strategies (no paper counterpart; §8 future work)", r.Label),
		Header: []string{"Strategy", "Total", "Execution", "Reopt overhead", "Reopts", "Timeouts"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, FmtDur(row.TotalSec), FmtDur(row.ExecSec),
			fmt.Sprintf("%.1fms", row.OverheadMs), fmt.Sprint(row.Reopts), fmt.Sprint(row.Timeouts))
	}
	return t.String()
}

// ExtTriggerRow is one threshold's outcome.
type ExtTriggerRow struct {
	Threshold float64
	TotalSec  float64
	Reopts    int
}

// ExtTriggerResult sweeps the q-error trigger threshold (the paper fixes
// it at 50 and calls better policies future work).
type ExtTriggerResult struct {
	Label string
	Rows  []ExtTriggerRow
}

// ExtTriggerSweep runs LPCE-R across trigger thresholds.
func ExtTriggerSweep(e *Env, label string, queries []*query.Query) (ExtTriggerResult, error) {
	eng := engine.New(e.DB)
	var res ExtTriggerResult
	res.Label = label
	for _, thr := range []float64{5, 20, 50, 200, 1000} {
		var row ExtTriggerRow
		row.Threshold = thr
		for _, q := range queries {
			r, err := eng.Execute(q, engine.Config{
				Estimator: e.LPCEIEstimator(),
				Refiner:   e.Refiner,
				Policy:    reopt.Policy{QErrThreshold: thr, MaxReopts: 3},
				Budget:    e.P.budget,
			})
			if err != nil {
				return res, err
			}
			row.TotalSec += r.Total().Seconds()
			row.Reopts += r.Reopts
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the sweep.
func (r ExtTriggerResult) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Extension (%s): q-error trigger threshold sweep (paper fixes 50)", r.Label),
		Header: []string{"Threshold", "Total end-to-end", "Reopts"},
	}
	for _, row := range r.Rows {
		t.AddRow(FmtF(row.Threshold), FmtDur(row.TotalSec), fmt.Sprint(row.Reopts))
	}
	return t.String()
}
