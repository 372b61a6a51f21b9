package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/joblike"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/workload"
)

// ObsRun is one configuration's fully-observed workload execution: the
// aggregated observability report plus the run's wall time and the
// degradation tally under resource budgets.
type ObsRun struct {
	Name string        `json:"name"`
	Wall time.Duration `json:"wall_ns"`
	// ExecWall is the sum of per-query executor wall time (T_E) across the
	// run — the component the vectorized batch executor targets; Wall also
	// includes planning, inference, and pool scheduling.
	ExecWall time.Duration `json:"exec_wall_ns"`
	// Degraded counts queries that hit a configured budget — a resource
	// limit or per-query deadline — and were failed individually with a
	// typed error. Failed counts everything else that went wrong.
	Degraded int         `json:"degraded"`
	Failed   int         `json:"failed"`
	Report   *obs.Report `json:"report"`
}

// QPS returns the run's aggregate throughput in queries per second.
func (r ObsRun) QPS() float64 {
	if r.Wall <= 0 || r.Report == nil {
		return 0
	}
	return float64(r.Report.Queries) / r.Wall.Seconds()
}

// ObsResult is the observability experiment's outcome: the JOB-like named
// suite executed under the representative configurations, each with its own
// Observer collecting per-operator stats, re-optimization events, CE
// evaluation, and engine metrics.
type ObsResult struct {
	Label   string   `json:"workload"`
	Workers int      `json:"workers"`
	Runs    []ObsRun `json:"runs"`
}

// ObsOptions configure an observability run beyond the worker count: the
// per-query resource budgets of the robustness layer. Zero values disable
// each budget.
type ObsOptions struct {
	Workers int
	// Timeout is the per-query deadline; an exceeded query is cancelled
	// cooperatively and counted as degraded.
	Timeout time.Duration
	// MaxMatRows caps materialized intermediate rows per query execution
	// attempt; an exceeded query fails with *exec.ResourceError and is
	// counted as degraded.
	MaxMatRows int64
}

// Observability executes the JOB-like named suite under the PostgreSQL,
// LPCE-I, and LPCE-R configurations with the full observability layer on and
// no resource budgets.
func Observability(e *Env, workers int) (*ObsResult, error) {
	return ObservabilityWithOptions(e, ObsOptions{Workers: workers})
}

// ObservabilityWithOptions is Observability under explicit resource budgets:
// every engine.Config carries a fresh Observer, and the estimator is shared
// across workers behind a metrics-registered estimate cache, so cache
// hit/miss counters land in the same report as everything else. Queries run
// across a pool of opt.Workers goroutines (GOMAXPROCS when <= 0); the
// observer is the shared sink, exercising its goroutine-safety.
//
// A query exceeding a budget fails alone: the pool keeps draining, and the
// run's Degraded/Failed tallies report what happened instead of aborting the
// whole experiment.
func ObservabilityWithOptions(e *Env, opt ObsOptions) (*ObsResult, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queries, err := joblike.Queries(e.DB.Schema)
	if err != nil {
		return nil, err
	}
	wl := make([]*query.Query, 0, len(queries))
	for _, name := range joblike.Names() {
		wl = append(wl, queries[name])
	}
	want := map[string]bool{"PostgreSQL": true, "LPCE-I": true, "LPCE-R": true}
	res := &ObsResult{Label: fmt.Sprintf("JOB-like suite (%d queries)", len(wl)), Workers: workers}
	eng := engine.New(e.DB)
	for _, rc := range e.Configs() {
		if !want[rc.Name] {
			continue
		}
		o := obs.NewObserver()
		cfg := rc.Cfg
		cfg.Obs = o
		cfg.Estimator = cardest.NewCacheWithMetrics(cfg.Estimator, o.Registry())
		cfg.Limits.MaxMatRows = opt.MaxMatRows
		var execWall atomic.Int64 // summed T_E nanos across workers
		start := time.Now()
		errs := workload.RunEach(context.Background(), len(wl), workers, func(i int) error {
			ctx := context.Background()
			if opt.Timeout > 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, opt.Timeout)
				defer cancel()
			}
			qres, err := eng.ExecuteContext(ctx, wl[i], cfg)
			execWall.Add(int64(qres.ExecTime))
			if err != nil {
				return fmt.Errorf("%s: %w", joblike.Names()[i], err)
			}
			return nil
		})
		run := ObsRun{Name: rc.Name, Wall: time.Since(start),
			ExecWall: time.Duration(execWall.Load()), Report: o.Report()}
		for _, err := range errs {
			switch {
			case err == nil:
			case isDegradation(err):
				run.Degraded++
			default:
				run.Failed++
			}
		}
		res.Runs = append(res.Runs, run)
	}
	return res, nil
}

// isDegradation reports whether a per-query error is expected graceful
// degradation under the configured budgets, as opposed to a genuine failure.
func isDegradation(err error) bool {
	var re *exec.ResourceError
	return errors.As(err, &re) ||
		errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, context.Canceled)
}

// Render formats the observability reports for terminal output: one summary
// table across configurations, then per-configuration phase, operator, and
// CE-evaluation tables.
func (r *ObsResult) Render() string {
	var b strings.Builder
	sum := &Table{
		Title:  fmt.Sprintf("Observability: %s, %d workers", r.Label, r.Workers),
		Header: []string{"config", "queries", "timeouts", "degraded", "failed", "reopts", "wall", "exec wall", "q/s", "cache hit%"},
	}
	for _, run := range r.Runs {
		rep := run.Report
		hits := rep.Metrics.Counters["cardest.cache.hits"]
		misses := rep.Metrics.Counters["cardest.cache.misses"]
		hitRate := 0.0
		if hits+misses > 0 {
			hitRate = float64(hits) / float64(hits+misses)
		}
		sum.AddRow(run.Name, fmt.Sprint(rep.Queries), fmt.Sprint(rep.Timeouts),
			fmt.Sprint(run.Degraded), fmt.Sprint(run.Failed), fmt.Sprint(rep.Reopts),
			run.Wall.Round(time.Millisecond).String(),
			run.ExecWall.Round(time.Millisecond).String(), FmtF(run.QPS()), FmtPct(hitRate))
	}
	b.WriteString(sum.String())

	for _, run := range r.Runs {
		rep := run.Report
		b.WriteString("\n")
		pt := &Table{
			Title:  fmt.Sprintf("%s: phase latency (Eq. 7 decomposition)", run.Name),
			Header: []string{"phase", "p50", "p90", "p99", "max"},
		}
		for _, ph := range rep.Phases {
			pt.AddRow(ph.Phase, FmtDur(ph.Seconds.P50), FmtDur(ph.Seconds.P90),
				FmtDur(ph.Seconds.P99), FmtDur(ph.Seconds.Max))
		}
		b.WriteString(pt.String())

		b.WriteString("\n")
		ot := &Table{
			Title:  fmt.Sprintf("%s: per-operator runtime stats", run.Name),
			Header: []string{"operator", "instances", "rows", "wall", "q-err p50", "q-err p99"},
		}
		for _, op := range rep.Operators {
			ot.AddRow(op.Op, fmt.Sprint(op.Count), fmt.Sprint(op.Rows), FmtDur(op.WallSeconds),
				FmtF(op.QError.P50), FmtF(op.QError.P99))
		}
		b.WriteString(ot.String())

		for _, ce := range rep.CE {
			b.WriteString("\n")
			ct := &Table{
				Title: fmt.Sprintf("%s: CE evaluation of %q (%d estimates matched, %d never executed)",
					run.Name, ce.Estimator, ce.Matched, ce.Unmatched),
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
