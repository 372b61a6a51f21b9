package experiments

import (
	"time"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
)

// Table1Row is one estimator's accuracy/latency summary.
type Table1Row struct {
	Name         string
	DataAccess   bool
	MeanQError   float64
	InferTimeSec float64 // average per single cardinality estimation
}

// Table1Result reproduces Table 1: the estimation q-error and per-estimate
// inference time of every learning-based estimator on the deep-join test
// set, exposing the accuracy/latency tension that motivates LPCE.
type Table1Result struct {
	Rows []Table1Row
}

// Table1 runs the experiment.
func Table1(e *Env) Table1Result {
	type entry struct {
		name       string
		dataAccess bool
		est        interface {
			Name() string
			EstimateSubset(*query.Query, query.BitSet) float64
		}
	}
	entries := []entry{
		{"UAE", true, e.UAE},
		{"DeepDB", true, e.DeepDB},
		{"NeuroCard", true, e.NeuroCard},
		{"FLAT", true, e.FLAT},
		{"MSCN", false, e.MSCN},
		{"TLSTM", false, e.TLSTM},
		{"Flow-Loss", false, e.FlowLoss},
		{"LPCE-I", false, e.LPCEIEstimator()},
	}
	var res Table1Result
	for _, en := range entries {
		var qs []float64
		var inferTime time.Duration
		calls := 0
		for _, q := range e.JoinHigh {
			full := q.AllTablesMask()
			truth := e.Oracle.EstimateSubset(q, full)
			start := time.Now()
			est := en.est.EstimateSubset(q, full)
			inferTime += time.Since(start)
			calls++
			qs = append(qs, obs.QError(truth, est))
		}
		res.Rows = append(res.Rows, Table1Row{
			Name:         en.name,
			DataAccess:   en.dataAccess,
			MeanQError:   Mean(qs),
			InferTimeSec: inferTime.Seconds() / float64(calls),
		})
	}
	return res
}

// Render formats the result like the paper's Table 1.
func (r Table1Result) Render() string {
	t := &Table{
		Title:  "Table 1: estimation q-error and inference time (deep-join test set)",
		Header: []string{"Name", "Data access", "mean q-error", "Inference time"},
	}
	for _, row := range r.Rows {
		access := "No"
		if row.DataAccess {
			access = "Yes"
		}
		t.AddRow(row.Name, access, FmtF(row.MeanQError), FmtDur(row.InferTimeSec))
	}
	return t.String()
}
