package experiments

import (
	"fmt"
	"strings"

	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/joblike"
	"github.com/lpce-db/lpce/internal/obs"
)

// JobLikeRun is one stack's outcome on one named query.
type JobLikeRun struct {
	Count    int     `json:"count"`
	TimedOut bool    `json:"timed_out"`
	Seconds  float64 `json:"seconds"` // T_end
	Reopts   int     `json:"reopts"`
}

// JobLikeRow is one named query under every stack, its runs in
// JobLikeResult.Stacks order.
type JobLikeRow struct {
	Name  string       `json:"name"`
	Joins int          `json:"joins"`
	Runs  []JobLikeRun `json:"runs"`
}

// JobLikeStack is one estimator stack's observability report over the
// whole suite: phase latencies, per-operator stats, re-optimization events
// and CE evaluation.
type JobLikeStack struct {
	Name   string      `json:"name"`
	Report *obs.Report `json:"report"`
}

// JobLikeResult is the JOB-like named suite (stable named queries, unlike
// the random workloads) run serially under the PostgreSQL, LPCE-I and
// LPCE-R stacks, each with its own Observer: the per-query end-to-end
// ledger T_end = T_P + T_I + T_R + T_E and where each stack spends it.
type JobLikeResult struct {
	Stacks []JobLikeStack `json:"stacks"`
	Rows   []JobLikeRow   `json:"rows"`
}

// JobLike runs the suite. It fails if two stacks count a query
// differently.
func JobLike(e *Env) (*JobLikeResult, error) {
	queries, err := joblike.Queries(e.DB.Schema)
	if err != nil {
		return nil, err
	}
	res := &JobLikeResult{}
	for _, name := range joblike.Names() {
		res.Rows = append(res.Rows, JobLikeRow{Name: name, Joins: queries[name].NumJoins()})
	}
	eng := engine.New(e.DB)
	for _, rc := range e.Configs() {
		if rc.Name != "PostgreSQL" && rc.Name != "LPCE-I" && rc.Name != "LPCE-R" {
			continue
		}
		o := obs.NewObserver()
		cfg := rc.Cfg
		cfg.Obs = o
		for i := range res.Rows {
			row := &res.Rows[i]
			r, err := eng.Execute(queries[row.Name], cfg)
			if err != nil {
				return nil, fmt.Errorf("joblike %s (%s): %w", row.Name, rc.Name, err)
			}
			row.Runs = append(row.Runs, JobLikeRun{
				Count: r.Count, TimedOut: r.TimedOut, Seconds: r.Total().Seconds(), Reopts: r.Reopts,
			})
		}
		res.Stacks = append(res.Stacks, JobLikeStack{Name: rc.Name, Report: o.Report()})
	}
	return res, res.checkCounts()
}

// count returns the query's COUNT(*), taken from the first stack that
// finished within the work budget; ok is false when none did.
func (row JobLikeRow) count() (n int, stack int, ok bool) {
	for i, run := range row.Runs {
		if !run.TimedOut {
			return run.Count, i, true
		}
	}
	return 0, 0, false
}

// checkCounts returns an error naming the first query and stack whose
// COUNT(*) differs from the first stack's; a run that hit the work budget
// has no count and is skipped.
func (r *JobLikeResult) checkCounts() error {
	for _, row := range r.Rows {
		want, first, ok := row.count()
		if !ok {
			continue
		}
		for i, run := range row.Runs {
			if !run.TimedOut && run.Count != want {
				return fmt.Errorf("joblike %s: %s counts %d rows, %s counts %d",
					row.Name, r.Stacks[i].Name, run.Count, r.Stacks[first].Name, want)
			}
		}
	}
	return nil
}

// Render formats the per-query table, then each stack's phase, operator
// and CE-evaluation tables.
func (r *JobLikeResult) Render() string {
	header := []string{"Query", "Joins", "COUNT(*)"}
	for _, s := range r.Stacks {
		header = append(header, s.Name)
	}
	t := &Table{
		Title:  "JOB-like named suite: per-query end-to-end time",
		Header: append(header, "Reopts"),
	}
	totals := make([]float64, len(r.Stacks))
	for _, row := range r.Rows {
		count := "timeout"
		if n, _, ok := row.count(); ok {
			count = fmt.Sprint(n)
		}
		cells := []string{row.Name, fmt.Sprint(row.Joins), count}
		reopts := 0
		for i, run := range row.Runs {
			totals[i] += run.Seconds
			reopts += run.Reopts
			cells = append(cells, FmtDur(run.Seconds))
		}
		t.AddRow(append(cells, fmt.Sprint(reopts))...)
	}
	cells := []string{"TOTAL", "", ""}
	for _, sec := range totals {
		cells = append(cells, FmtDur(sec))
	}
	t.AddRow(append(cells, "")...)

	var b strings.Builder
	b.WriteString(t.String())
	for _, s := range r.Stacks {
		rep := s.Report
		b.WriteString("\n")
		pt := &Table{
			Title: fmt.Sprintf("%s: phase latency (Eq. 7 decomposition), %d queries, %d timeouts, %d reopts",
				s.Name, rep.Queries, rep.Timeouts, rep.Reopts),
			Header: []string{"phase", "p50", "p90", "p99", "max"},
		}
		for _, ph := range rep.Phases {
			pt.AddRow(ph.Phase, FmtDur(ph.Seconds.P50), FmtDur(ph.Seconds.P90),
				FmtDur(ph.Seconds.P99), FmtDur(ph.Seconds.Max))
		}
		b.WriteString(pt.String())

		b.WriteString("\n")
		ot := &Table{
			Title:  fmt.Sprintf("%s: per-operator runtime stats (self wall and work, children excluded)", s.Name),
			Header: []string{"operator", "instances", "rows", "wall", "work", "ns/work", "q-err p50", "q-err p99"},
		}
		for _, op := range rep.Operators {
			nsPerWork := "-"
			if op.Work > 0 {
				nsPerWork = FmtF(op.WallSeconds * 1e9 / float64(op.Work))
			}
			ot.AddRow(op.Op, fmt.Sprint(op.Count), fmt.Sprint(op.Rows), FmtDur(op.WallSeconds),
				fmt.Sprint(op.Work), nsPerWork, FmtF(op.QError.P50), FmtF(op.QError.P99))
		}
		b.WriteString(ot.String())

		for _, ce := range rep.CE {
			b.WriteString("\n")
			ct := &Table{
				Title: fmt.Sprintf("%s: CE evaluation of %q (%d estimates matched, %d never executed)",
					s.Name, ce.Estimator, ce.Matched, ce.Unmatched),
				Header: []string{"subset size", "samples", "q-err p50", "p90", "p99", "max"},
			}
			for _, row := range ce.Sizes {
				ct.AddRow(fmt.Sprint(row.Size), fmt.Sprint(row.Samples),
					FmtF(row.P50), FmtF(row.P90), FmtF(row.P99), FmtF(row.Max))
			}
			b.WriteString(ct.String())
		}
	}
	return b.String()
}
