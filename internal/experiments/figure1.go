package experiments

import (
	"fmt"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/workload"
)

// Figure1Series is the q-error distribution of one estimator at one join
// count (the box-plot statistics of the paper's Figure 1).
type Figure1Series struct {
	Estimator string
	Joins     int
	P5        float64
	P25       float64
	Median    float64
	P75       float64
	P95       float64
	Mean      float64
}

// Figure1Result reproduces Figure 1: estimation error versus query
// complexity (number of joins) for the learned estimators, showing errors
// amplifying on deeper joins — the observation motivating progressive
// estimation.
type Figure1Result struct {
	Series []Figure1Series
}

// Figure1 runs the experiment. Queries per join count follow the
// environment's test-set size.
func Figure1(e *Env) Figure1Result {
	minJoins, maxJoins := 2, 8
	if e.Scale == ScaleTiny {
		maxJoins = 4
	}
	ests := append(e.QueryDriven(), e.DataDriven()...)
	g := workload.NewGenerator(e.DB, e.Seed+3)

	var res Figure1Result
	for joins := minJoins; joins <= maxJoins; joins += 2 {
		queries := e.CuratedQueries(g, e.P.testQueries, joins)
		truths := make([]float64, len(queries))
		for i, q := range queries {
			truths[i] = e.Oracle.EstimateSubset(q, q.AllTablesMask())
		}
		for _, ne := range ests {
			var qs []float64
			for i, q := range queries {
				est := ne.Est.EstimateSubset(q, q.AllTablesMask())
				qs = append(qs, obs.QError(truths[i], est))
			}
			res.Series = append(res.Series, Figure1Series{
				Estimator: ne.Name,
				Joins:     joins,
				P5:        Percentile(qs, 5),
				P25:       Percentile(qs, 25),
				Median:    Percentile(qs, 50),
				P75:       Percentile(qs, 75),
				P95:       Percentile(qs, 95),
				Mean:      Mean(qs),
			})
		}
	}
	return res
}

// Render formats the distributions as a table (one row per estimator/join
// count, replacing the paper's box plots).
func (r Figure1Result) Render() string {
	t := &Table{
		Title:  "Figure 1: estimation q-error vs number of joins (box-plot stats)",
		Header: []string{"Estimator", "Joins", "p5", "p25", "median", "p75", "p95", "mean"},
	}
	for _, s := range r.Series {
		t.AddRow(s.Estimator, fmt.Sprint(s.Joins),
			FmtF(s.P5), FmtF(s.P25), FmtF(s.Median), FmtF(s.P75), FmtF(s.P95), FmtF(s.Mean))
	}
	return t.String()
}
