package experiments

import (
	"fmt"

	"github.com/lpce-db/lpce/internal/core"
)

// Figure16Point is the refinement error at one execution progress point.
type Figure16Point struct {
	ExecutedOps int
	MeanQError  float64
	MedianQ     float64
	Samples     int
}

// Figure16Result reproduces Figure 16: how LPCE-R's mean q-error over the
// remaining operators falls as more operators finish.
type Figure16Result struct {
	Label  string
	Points []Figure16Point
}

// Figure16 evaluates the trained refiner over executed prefixes of test
// plans.
func Figure16(e *Env, label string, samples []core.Sample) Figure16Result {
	res := Figure16Result{Label: label}
	if len(samples) == 0 {
		return res
	}
	maxOps := 0
	for _, s := range samples {
		if n := s.Plan.NumNodes(); n > maxOps {
			maxOps = n
		}
	}
	step := maxOps / 5
	if step < 1 {
		step = 1
	}
	for k := step; k < maxOps; k += step {
		var qs []float64
		for _, s := range samples {
			if k >= s.Plan.NumNodes() {
				continue
			}
			qs = append(qs, e.Refiner.EvalPrefix(s, k)...)
		}
		if len(qs) == 0 {
			continue
		}
		res.Points = append(res.Points, Figure16Point{
			ExecutedOps: k,
			MeanQError:  Mean(qs),
			MedianQ:     Percentile(qs, 50),
			Samples:     len(qs),
		})
	}
	return res
}

// Render formats the error trajectory.
func (r Figure16Result) Render() string {
	t := &Table{
		Title:  fmt.Sprintf("Figure 16 (%s): LPCE-R q-error vs executed operators", r.Label),
		Header: []string{"Executed ops", "mean q-error", "median q-error", "estimates"},
	}
	for _, p := range r.Points {
		t.AddRow(fmt.Sprint(p.ExecutedOps), FmtF(p.MeanQError), FmtF(p.MedianQ), fmt.Sprint(p.Samples))
	}
	return t.String()
}

// Table3Row is one (variant, executed-operators) error summary.
type Table3Row struct {
	Variant     string
	ExecutedOps int
	P50         float64
	P75         float64
	P95         float64
	P99         float64
	Mean        float64
}

// Table3Result reproduces Table 3: refinement q-error percentiles for
// LPCE-R against the LPCE-R-Single and LPCE-R-Two ablations at several
// execution progress points.
type Table3Result struct {
	Rows []Table3Row
}

// Table3 evaluates LPCE-R and its two ablations on executed prefixes. All
// three share the full refiner's stage-1 modules; only LPCE-R-Two trains.
func Table3(e *Env, samples []core.Sample) Table3Result {
	cfg := e.P.refiner
	cfg.Base = e.P.student
	variant := func(kind core.RefinerKind) *core.Refiner {
		cfg.Kind = kind
		return core.TrainRefiner(cfg, e.Refiner.Content, e.Refiner.CardM, e.Enc, e.DB, e.Samples, e.LogMax)
	}
	variants := []struct {
		name string
		r    *core.Refiner
	}{
		{"LPCE-R", e.Refiner},
		{"LPCE-R-Single", variant(core.RefinerSingle)},
		{"LPCE-R-Two", variant(core.RefinerTwo)},
	}

	maxOps := 0
	for _, s := range samples {
		if n := s.Plan.NumNodes(); n > maxOps {
			maxOps = n
		}
	}
	var ks []int
	for _, frac := range []float64{0.25, 0.5, 0.75} {
		k := int(frac * float64(maxOps))
		if k < 1 {
			k = 1
		}
		ks = append(ks, k)
	}

	var res Table3Result
	for _, v := range variants {
		for _, k := range ks {
			var qs []float64
			for _, s := range samples {
				if k >= s.Plan.NumNodes() {
					continue
				}
				qs = append(qs, v.r.EvalPrefix(s, k)...)
			}
			if len(qs) == 0 {
				continue
			}
			res.Rows = append(res.Rows, Table3Row{
				Variant:     v.name,
				ExecutedOps: k,
				P50:         Percentile(qs, 50),
				P75:         Percentile(qs, 75),
				P95:         Percentile(qs, 95),
				P99:         Percentile(qs, 99),
				Mean:        Mean(qs),
			})
		}
	}
	return res
}

// Render formats the ablation table.
func (r Table3Result) Render() string {
	t := &Table{
		Title:  "Table 3: refinement q-error percentiles by progressive-model design",
		Header: []string{"Variant", "Executed ops", "50th", "75th", "95th", "99th", "mean"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Variant, fmt.Sprint(row.ExecutedOps),
			FmtF(row.P50), FmtF(row.P75), FmtF(row.P95), FmtF(row.P99), FmtF(row.Mean))
	}
	return t.String()
}
