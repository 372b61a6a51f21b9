package experiments

import (
	"fmt"
	"strings"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/reopt"
)

// Figure17Result reproduces the paper's worked re-optimization example
// (Figures 2 and 17): one query whose LPCE-I estimates trigger
// re-optimization, run with and without it — the initial and the
// re-optimized plan, each run's end-to-end time decomposition and its
// COUNT(*), which must agree.
type Figure17Result struct {
	SQL            string
	Without        engine.Result // LPCE-I only
	With           engine.Result // LPCE-R
	Found          bool
	QueriesScanned int
}

// Figure17 searches the deep-join test set for a query that triggers
// re-optimization and documents it. A forced low threshold is used at Tiny
// scale so unit tests reliably find one.
func Figure17(e *Env) Figure17Result {
	policy := reopt.DefaultPolicy()
	if e.Scale == ScaleTiny {
		policy = reopt.Policy{QErrThreshold: 5, MaxReopts: 3}
	}
	eng := engine.New(e.DB)
	var res Figure17Result
	var est cardest.Estimator = e.LPCEIEstimator()
	for _, q := range e.JoinHigh {
		res.QueriesScanned++
		withR, err := eng.Execute(q, engine.Config{
			Estimator: est, Refiner: e.Refiner, Policy: policy, Budget: e.P.budget,
		})
		if err != nil || withR.Reopts == 0 {
			continue
		}
		withoutR, err := eng.Execute(q, engine.Config{Estimator: est, Budget: e.P.budget})
		if err != nil {
			continue
		}
		res.SQL = q.SQL()
		res.Without, res.With = withoutR, withR
		res.Found = true
		return res
	}
	return res
}

// Render formats the example narrative.
func (r Figure17Result) Render() string {
	if !r.Found {
		return fmt.Sprintf("Figure 17: no query triggered re-optimization among %d candidates "+
			"(LPCE-I estimates were within the threshold everywhere)\n", r.QueriesScanned)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 17: query re-optimization example\n")
	fmt.Fprintf(&b, "query: %s\n", r.SQL)
	fmt.Fprintf(&b, "re-optimizations: %d\n", r.With.Reopts)
	t := &Table{
		Title:  "end-to-end time T_end = T_P + T_I + T_R + T_E, and the result",
		Header: []string{"run", "T_P", "T_I", "T_R", "T_E", "T_end", "COUNT(*)"},
	}
	for _, run := range []struct {
		name string
		res  engine.Result
	}{{"without re-optimization (LPCE-I)", r.Without}, {"with re-optimization (LPCE-R)", r.With}} {
		t.AddRow(run.name, FmtDur(run.res.PlanTime.Seconds()), FmtDur(run.res.InferTime.Seconds()),
			FmtDur(run.res.ReoptTime.Seconds()), FmtDur(run.res.ExecTime.Seconds()),
			FmtDur(run.res.Total().Seconds()), fmt.Sprint(run.res.Count))
	}
	b.WriteString(t.String())
	fmt.Fprintf(&b, "\ninitial plan (LPCE-I):\n%s", r.Without.FinalPlan)
	fmt.Fprintf(&b, "\nfinal plan (LPCE-R, resumed from materialized intermediates):\n%s", r.With.FinalPlan)
	return b.String()
}
