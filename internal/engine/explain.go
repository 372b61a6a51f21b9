package engine

import (
	"fmt"
	"runtime/debug"
	"strings"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/optimizer"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
)

// Explain returns the plan the optimizer would choose for the query under
// the given estimator, without executing it — the engine's EXPLAIN. The
// rendering shows each operator with its estimated cardinality. A panic
// during the plan search is returned as a *PanicError.
func (e *Engine) Explain(q *query.Query, est cardest.Estimator) (_ string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: debug.Stack()}
		}
	}()
	opt := optimizer.New(e.DB, est)
	p, stats, err := opt.Plan(q)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "plan (estimator=%s, %d cardinality estimates, est. cost %.0f):\n",
		est.Name(), stats.EstimateCalls, p.EstCost)
	b.WriteString(p.String())
	return b.String(), nil
}

// ExplainAnalyze executes the query and returns the final plan annotated
// with true cardinalities plus the end-to-end time decomposition — the
// engine's EXPLAIN ANALYZE, and the paper's source of training labels.
//
// When cfg.Obs is set the rendering is fully instrumented: every operator
// line carries its runtime stats from the final execution attempt
// (`actual=N est=M time=T`), and the re-optimization events — triggered or
// suppressed, with their q-errors — are listed after the plan.
func (e *Engine) ExplainAnalyze(q *query.Query, cfg Config) (string, Result, error) {
	res, err := e.Execute(q, cfg)
	if err != nil {
		return "", res, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "COUNT(*) = %d\n", res.Count)
	if res.TimedOut {
		b.WriteString("WARNING: execution exceeded the work budget (reported as timeout)\n")
	}
	fmt.Fprintf(&b, "planning %v · inference %v · re-optimization %v (%d rounds) · execution %v · total %v\n",
		res.PlanTime, res.InferTime, res.ReoptTime, res.Reopts, res.ExecTime, res.Total())
	b.WriteString(res.FinalPlan.StringWith(operatorAnnotations(res.Trace)))
	writeReoptEvents(&b, res.Trace)
	return b.String(), res, nil
}

// operatorAnnotations returns a plan annotation callback rendering each
// operator's runtime stats from the trace's final execution attempt, or nil
// when tracing was off.
func operatorAnnotations(t *obs.QueryTrace) func(*plan.Node) string {
	final := t.FinalRound()
	if final == nil {
		return nil
	}
	return func(n *plan.Node) string {
		s := final.ByMask(n.Tables)
		if s == nil {
			return ""
		}
		actual := "?" // operator did not run to completion
		if s.ActualRows >= 0 {
			actual = fmt.Sprintf("%.0f", s.ActualRows)
		}
		return fmt.Sprintf(" (actual=%s est=%.0f time=%s)", actual, s.EstRows, s.Wall.Round(time.Microsecond))
	}
}

// writeReoptEvents appends the trace's checkpoint events, one line each.
func writeReoptEvents(b *strings.Builder, t *obs.QueryTrace) {
	if t == nil || len(t.Events) == 0 {
		return
	}
	b.WriteString("re-optimization events:\n")
	for _, ev := range t.Events {
		outcome := "suppressed: " + ev.Suppressed
		if ev.Triggered {
			outcome = "TRIGGERED re-planning"
			if ev.PlanDiff != "" {
				outcome += " (" + ev.PlanDiff + ")"
			}
		}
		fmt.Fprintf(b, "  round %d %s: est=%.0f actual=%.0f q-error=%.1f — %s\n",
			ev.Round, ev.Op, ev.EstRows, ev.ActualRows, ev.QError, outcome)
	}
}
