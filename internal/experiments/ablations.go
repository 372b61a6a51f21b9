package experiments

import (
	"fmt"
	"time"

	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/treenn"
)

// VariantRow is one model variant's latency and accuracy.
type VariantRow struct {
	Name         string
	Weights      int
	InferTimeSec float64 // per single cardinality estimation
	P50          float64
	P95          float64
	MeanQ        float64
}

// Figure1920Result reproduces Figures 19 and 20 together: the inference
// time and accuracy of LPCE-T (LSTM, uncompressed), LPCE-S (SRU,
// uncompressed), LPCE-C (small SRU trained directly) and LPCE-I (small SRU
// distilled), isolating the contributions of the SRU backbone and of
// knowledge distillation.
type Figure1920Result struct {
	Rows []VariantRow
}

// Figure19And20 trains the four variants and measures them on the
// deep-join test set.
func Figure19And20(e *Env) Figure1920Result {
	lstmCfg := e.P.teacher
	lstmCfg.Cell = treenn.CellLSTM
	lpceT := core.TrainTreeModel(lstmCfg, e.Enc, e.Samples, e.LogMax, nil)
	lpceS := e.LPCEI.Teacher // the uncompressed SRU model
	lpceC := core.TrainTreeModel(e.P.student, e.Enc, e.Samples, e.LogMax, nil)
	lpceI := e.LPCEI.Model

	variants := []struct {
		name  string
		model *treenn.TreeModel
	}{
		{"LPCE-T", lpceT},
		{"LPCE-S", lpceS},
		{"LPCE-C", lpceC},
		{"LPCE-I", lpceI},
	}
	var res Figure1920Result
	for _, v := range variants {
		est := &core.TreeEstimator{Label: v.name, Model: v.model, Enc: e.Enc}
		var qs []float64
		var infer time.Duration
		calls := 0
		for _, q := range e.JoinHigh {
			full := q.AllTablesMask()
			truth := e.Oracle.EstimateSubset(q, full)
			start := time.Now()
			got := est.EstimateSubset(q, full)
			infer += time.Since(start)
			calls++
			qs = append(qs, obs.QError(truth, got))
		}
		res.Rows = append(res.Rows, VariantRow{
			Name:         v.name,
			Weights:      v.model.NumWeights(),
			InferTimeSec: infer.Seconds() / float64(calls),
			P50:          Percentile(qs, 50),
			P95:          Percentile(qs, 95),
			MeanQ:        Mean(qs),
		})
	}
	return res
}

// Render formats the variant comparison.
func (r Figure1920Result) Render() string {
	t := &Table{
		Title:  "Figures 19-20: SRU and distillation ablation (inference time and accuracy)",
		Header: []string{"Variant", "Weights", "Inference time", "q-err p50", "q-err p95", "q-err mean"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Name, fmt.Sprint(row.Weights), FmtDur(row.InferTimeSec),
			FmtF(row.P50), FmtF(row.P95), FmtF(row.MeanQ))
	}
	return t.String()
}

// Figure21Row is one loss function's accuracy on one test set.
type Figure21Row struct {
	Loss  string
	Set   string
	P50   float64
	P75   float64
	P95   float64
	MeanQ float64
}

// Figure21Result reproduces Figure 21: the node-wise loss (LPCE-I) versus
// the query-wise loss (LPCE-Q) at identical architecture.
type Figure21Result struct {
	Rows []Figure21Row
}

// Figure21 trains LPCE-Q (query-wise) and compares it with a node-wise
// model of the same architecture on both test sets.
func Figure21(e *Env) Figure21Result {
	qCfg := e.P.teacher
	qCfg.NodeWise = false
	lpceQ := core.TrainTreeModel(qCfg, e.Enc, e.Samples, e.LogMax, nil)
	lpceN := e.LPCEI.Teacher // node-wise at the same architecture

	sets := []struct {
		name    string
		queries []*query.Query
	}{
		{e.JoinLowLabel, e.JoinLow},
		{e.JoinHighLabel, e.JoinHigh},
	}
	models := []struct {
		name  string
		model *treenn.TreeModel
	}{
		{"LPCE-Q (query-wise)", lpceQ},
		{"LPCE-I (node-wise)", lpceN},
	}
	var res Figure21Result
	for _, set := range sets {
		truths := make([]float64, len(set.queries))
		for i, q := range set.queries {
			truths[i] = e.Oracle.EstimateSubset(q, q.AllTablesMask())
		}
		for _, m := range models {
			est := &core.TreeEstimator{Label: m.name, Model: m.model, Enc: e.Enc}
			var qs []float64
			for i, q := range set.queries {
				qs = append(qs, obs.QError(truths[i], est.EstimateSubset(q, q.AllTablesMask())))
			}
			res.Rows = append(res.Rows, Figure21Row{
				Loss: m.name, Set: set.name,
				P50:   Percentile(qs, 50),
				P75:   Percentile(qs, 75),
				P95:   Percentile(qs, 95),
				MeanQ: Mean(qs),
			})
		}
	}
	return res
}

// Render formats the loss ablation.
func (r Figure21Result) Render() string {
	t := &Table{
		Title:  "Figure 21: node-wise vs query-wise loss",
		Header: []string{"Loss", "Set", "q-err p50", "q-err p75", "q-err p95", "q-err mean"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Loss, row.Set, FmtF(row.P50), FmtF(row.P75), FmtF(row.P95), FmtF(row.MeanQ))
	}
	return t.String()
}

// Figure18Point is the cost/quality trade-off at one training-set size.
type Figure18Point struct {
	Samples     int
	CollectSec  float64
	TrainSec    float64
	E2ELowSec   float64 // aggregate end-to-end time of the Join-low set
	E2EHighSec  float64 // aggregate end-to-end time of the Join-high set
	MeanQJoinHi float64
}

// Figure18Result reproduces Figure 18: sample collection time and model
// training time grow linearly with the training-set size, while end-to-end
// execution time improves with diminishing returns.
type Figure18Result struct {
	Points []Figure18Point
}

// Figure18 sweeps the training-set size.
func Figure18(e *Env) Figure18Result {
	fractions := []float64{0.25, 0.5, 0.75, 1.0}
	var res Figure18Result
	for _, f := range fractions {
		n := int(f * float64(len(e.Samples)))
		if n < 2 {
			continue
		}
		subset := e.Samples[:n]
		// collection cost scales linearly; attribute the measured total
		// proportionally rather than re-executing the collection
		collectSec := e.CollectStats.Duration.Seconds() * f

		trainStart := time.Now()
		cfg := e.P.teacher
		cfg.Seed += int64(n)
		m := core.TrainTreeModel(cfg, e.Enc, subset, e.LogMax, nil)
		trainSec := time.Since(trainStart).Seconds()

		est := &core.TreeEstimator{Label: "lpce-i", Model: m, Enc: e.Enc}
		var qs []float64
		for _, q := range e.JoinHigh {
			truth := e.Oracle.EstimateSubset(q, q.AllTablesMask())
			qs = append(qs, obs.QError(truth, est.EstimateSubset(q, q.AllTablesMask())))
		}
		e2eLow := e.aggregateE2E(est, e.JoinLow)
		e2eHigh := e.aggregateE2E(est, e.JoinHigh)
		res.Points = append(res.Points, Figure18Point{
			Samples:     n,
			CollectSec:  collectSec,
			TrainSec:    trainSec,
			E2ELowSec:   e2eLow,
			E2EHighSec:  e2eHigh,
			MeanQJoinHi: Mean(qs),
		})
	}
	return res
}

// aggregateE2E runs the query set end-to-end with the estimator and
// returns the total time in seconds.
func (e *Env) aggregateE2E(est *core.TreeEstimator, queries []*query.Query) float64 {
	eng := engine.New(e.DB)
	var total float64
	for _, q := range queries {
		r, err := eng.Execute(q, engine.Config{Estimator: est, Budget: e.P.budget})
		if err != nil {
			continue
		}
		total += r.Total().Seconds()
	}
	return total
}

// Render formats the sweep.
func (r Figure18Result) Render() string {
	t := &Table{
		Title:  "Figure 18: training dynamics vs number of training samples",
		Header: []string{"Samples", "Collection", "Training", "E2E (low)", "E2E (high)", "q-err mean (high)"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.Samples), FmtDur(p.CollectSec), FmtDur(p.TrainSec),
			FmtDur(p.E2ELowSec), FmtDur(p.E2EHighSec), FmtF(p.MeanQJoinHi))
	}
	return t.String()
}
