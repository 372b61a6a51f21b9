// Package engine drives end-to-end query execution, mirroring the paper's
// decomposition (Eq. 7/8): T_end = T_P (plan search) + T_I (model
// inference) + T_R (re-optimization) + T_E (execution). It wires together
// the optimizer, the pipelined executor with checkpoints, the
// re-optimization controller, and — when a refiner is supplied — the
// progressive estimate refinement that feeds each re-planning pass.
package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/optimizer"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/storage"
)

// Config selects the estimator stack for a run.
type Config struct {
	// Estimator provides initial cardinalities (histogram, LPCE-I, or any
	// baseline).
	Estimator cardest.Estimator
	// Refiner enables re-optimization when non-nil: LPCE-R
	// (*core.Refiner), or reopt.OverlayRefiner over the initial estimator
	// for estimators without a learned refinement model. A nil
	// *core.Refiner must be passed as an untyped nil, never stored here.
	Refiner Refiner
	// Policy is the re-optimization trigger rule (DefaultPolicy when zero).
	Policy reopt.Policy
	// Budget bounds executor work units per query; exceeded queries are
	// reported as timeouts. Zero means unlimited.
	Budget int64
	// Obs, when non-nil, turns on the observability layer: per-operator
	// runtime stats in the executor, re-optimization event tracing, CE
	// evaluation of every cardinality estimate, and engine-level metrics.
	// The observer may be shared by concurrent workers. Nil costs nothing.
	Obs *obs.Observer
	// Limits bounds per-query resource usage; exceeding a limit fails the
	// single query with a typed *exec.ResourceError instead of the process.
	Limits Limits
	// ExecWrap, when non-nil, intercepts every executor operator the engine
	// builds. It exists for the fault-injection harness; production configs
	// leave it nil.
	ExecWrap exec.WrapFunc
}

// Refiner turns the sub-plans a query has executed so far into the
// estimator that re-plans the rest of it (paper §6.2). The engine calls it
// once per re-optimization trigger.
type Refiner interface {
	Estimator(q *query.Query, execs []reopt.Executed) cardest.Estimator
}

// Limits are the per-query resource budgets. The zero value disables every
// limit (the pre-hardening behaviour). Re-optimizations per query are
// bounded by Policy.MaxReopts.
type Limits struct {
	// MaxMatRows caps the tuples buffered by pipeline breakers (hash-join
	// builds, nested-loop materializations) within one execution attempt —
	// a memory guardrail against runaway intermediates.
	MaxMatRows int64
}

// Result is the outcome and time decomposition of one query execution.
type Result struct {
	Count     int
	PlanTime  time.Duration // T_P: plan enumeration excluding inference
	InferTime time.Duration // T_I: initial model inference
	ReoptTime time.Duration // T_R: re-planning + refinement inference
	ExecTime  time.Duration // T_E: executor wall time
	Reopts    int
	TimedOut  bool
	FinalPlan *plan.Node
	// ExecWork is the total executor work units consumed across all
	// execution attempts — a deterministic, load-insensitive proxy for
	// execution cost (wall times above vary with machine load).
	ExecWork int64
	// EstimateCalls counts initial-optimization estimator invocations.
	EstimateCalls int
	// Trace is the structured execution trace (per-operator stats per
	// attempt, re-optimization events, phase times); nil unless Config.Obs
	// was set.
	Trace *obs.QueryTrace
}

// Total returns the end-to-end time T_end.
func (r Result) Total() time.Duration {
	return r.PlanTime + r.InferTime + r.ReoptTime + r.ExecTime
}

// Engine executes queries against one database.
type Engine struct {
	DB *storage.Database
}

// New returns an engine over db.
func New(db *storage.Database) *Engine { return &Engine{DB: db} }

// Execute runs the query end to end without a deadline; it is
// ExecuteContext with a background context.
func (e *Engine) Execute(q *query.Query, cfg Config) (Result, error) {
	return e.ExecuteContext(context.Background(), q, cfg)
}

// ExecuteContext runs the query end to end under ctx: a deadline or caller
// cancellation unwinds the executor cooperatively (checked in every scan
// and join inner loop), aborts re-planning, releases any materialized
// intermediates, and returns the context's error for this query only. A
// panic fails the query the same way, with a *PanicError.
func (e *Engine) ExecuteContext(ctx context.Context, q *query.Query, cfg Config) (Result, error) {
	if err := ctx.Err(); err != nil {
		return Result{}, err
	}
	var qt *obs.QueryTrace
	if cfg.Obs != nil {
		qt = cfg.Obs.NewQueryTrace(q.Fingerprint(), cfg.Estimator.Name())
	}
	res, err := e.execute(ctx, q, cfg, qt)
	if qt != nil && err == nil {
		finishTrace(q, cfg.Obs, qt, &res)
	}
	return res, err
}

// PanicError is the typed failure of a query during which the estimator,
// the refiner or the executor panicked. The engine recovers the panic at its
// entry points, so one bad model input fails one query, never the process.
type PanicError struct {
	Value any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack, captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("engine: query panicked: %v", e.Value)
}

// testHookController, when non-nil, observes the re-optimization controller
// the engine creates for a query; tests use it to assert that failure paths
// release materialized intermediates.
var testHookController func(*reopt.Controller)

// execute is ExecuteContext's body, with the optional query trace threaded
// through the optimizer, the executor contexts, and the re-optimization
// controller.
func (e *Engine) execute(ctx context.Context, q *query.Query, cfg Config, qt *obs.QueryTrace) (res Result, err error) {
	var rctrl *reopt.Controller
	// fail releases any materialized intermediates before failing the query,
	// so buffered rows never outlive the query that materialized them.
	fail := func(err error) (Result, error) {
		if rctrl != nil {
			rctrl.Release()
		}
		return res, err
	}
	// A panic fails this query alone, through the same release path as any
	// other error.
	defer func() {
		if r := recover(); r != nil {
			res, err = fail(&PanicError{Value: r, Stack: debug.Stack()})
		}
	}()
	if cfg.Policy.QErrThreshold == 0 {
		cfg.Policy = reopt.DefaultPolicy()
	}

	// Initial optimization: wall time minus time inside the estimator is
	// T_P; estimator time is T_I.
	timed := cardest.NewTimed(cfg.Estimator)
	opt := optimizer.New(e.DB, timed)
	opt.CE = cfg.Obs.CE().Recorder(cfg.Estimator.Name())
	start := time.Now()
	p, stats, err := opt.Plan(q)
	if err != nil {
		return res, err
	}
	res.PlanTime = time.Since(start) - timed.Time
	res.InferTime = timed.Time
	res.EstimateCalls = stats.EstimateCalls
	if err := ctx.Err(); err != nil {
		return res, err
	}

	var ctrl exec.Controller = exec.NopController{}
	if cfg.Refiner != nil {
		rctrl = reopt.NewController(cfg.Policy)
		rctrl.Trace = qt
		ctrl = rctrl
		if testHookController != nil {
			testHookController(rctrl)
		}
	}
	for {
		if rctrl != nil {
			rctrl.SetPlan(p)
		}
		ectx := &exec.Ctx{
			DB: e.DB, Q: q, Controller: ctrl, Budget: cfg.Budget, Trace: qt.NewRound(),
			Context: ctx, MaxMatRows: cfg.Limits.MaxMatRows, Wrap: cfg.ExecWrap,
			Metrics: cfg.Obs.Registry(),
		}
		execStart := time.Now()
		count, err := exec.Run(ectx, p)
		res.ExecTime += time.Since(execStart)
		res.ExecWork += ectx.Work()
		switch {
		case err == nil:
			res.Count = count
			res.FinalPlan = p
			return res, nil
		case errors.Is(err, exec.ErrBudget):
			res.TimedOut = true
			res.FinalPlan = p
			return res, nil
		default:
			var sig *exec.ReoptSignal
			if !errors.As(err, &sig) || rctrl == nil {
				return fail(err)
			}
			// Re-optimization: refine estimates from the executed
			// sub-plans, then re-plan from the materialized intermediates.
			// Both the refinement inference and the plan search count
			// toward T_R (paper Eq. 8).
			reoptStart := time.Now()
			prev := p
			p, err = e.replan(q, cfg, rctrl)
			res.ReoptTime += time.Since(reoptStart)
			if err == nil {
				err = ctx.Err() // a cancellation that landed mid-replan
			}
			if err != nil {
				return fail(err)
			}
			qt.AttachPlanDiff(planDiff(prev, p))
			res.Reopts = rctrl.Reopts
		}
	}
}

// planDiff summarises how re-planning changed the plan: how many of the new
// plan's operators (identified by physical operator + covered subset) did
// not exist in the old one.
func planDiff(old, cur *plan.Node) string {
	if old == nil || cur == nil {
		return ""
	}
	type opKey struct {
		op   plan.PhysOp
		mask query.BitSet
	}
	before := make(map[opKey]bool)
	old.Walk(func(n *plan.Node) { before[opKey{n.Op, n.Tables}] = true })
	changed, total := 0, 0
	cur.Walk(func(n *plan.Node) {
		total++
		if !before[opKey{n.Op, n.Tables}] {
			changed++
		}
	})
	if changed == 0 {
		return "plan unchanged"
	}
	return fmt.Sprintf("%d/%d operators changed", changed, total)
}

// finishTrace stamps the finished query's outcome on its trace, joins the
// observed true cardinalities into the CE evaluation, bumps the engine
// metrics, and publishes the trace.
func finishTrace(q *query.Query, o *obs.Observer, qt *obs.QueryTrace, res *Result) {
	qt.PlanTime = res.PlanTime
	qt.InferTime = res.InferTime
	qt.ReoptTime = res.ReoptTime
	qt.ExecTime = res.ExecTime
	qt.Count = res.Count
	qt.TimedOut = res.TimedOut
	qt.ExecWork = res.ExecWork

	// Every completed operator yields an exact cardinality for its subset —
	// the trace is the CE evaluation's source of true labels.
	ce := o.CE()
	fp := q.Fingerprint()
	for _, rd := range qt.Rounds {
		for _, op := range rd.Ops {
			if op.ActualRows >= 0 {
				ce.RecordTrue(fp, op.Mask, op.ActualRows)
			}
		}
	}

	m := o.Registry()
	m.Counter("engine.queries").Inc()
	if res.TimedOut {
		m.Counter("engine.timeouts").Inc()
	}
	m.Counter("engine.reopts").Add(int64(res.Reopts))
	m.Counter("engine.estimate_calls").Add(int64(res.EstimateCalls))
	m.Histogram("engine.plan_seconds").Observe(res.PlanTime.Seconds())
	m.Histogram("engine.infer_seconds").Observe(res.InferTime.Seconds())
	m.Histogram("engine.reopt_seconds").Observe(res.ReoptTime.Seconds())
	m.Histogram("engine.exec_seconds").Observe(res.ExecTime.Seconds())
	m.Histogram("engine.total_seconds").Observe(res.Total().Seconds())

	o.Observe(qt)
	res.Trace = qt
}

// replan refines the remaining estimates from the executed sub-plans and
// searches a new plan that may resume from materialized intermediates or
// restart from scratch.
func (e *Engine) replan(q *query.Query, cfg Config, rctrl *reopt.Controller) (*plan.Node, error) {
	refined := cfg.Refiner.Estimator(q, rctrl.ExecutedSubs())
	opt := optimizer.New(e.DB, refined)
	// Replan estimates are recorded under the refined estimator's own name,
	// so the CE report separates initial estimates from overlay/refinement
	// ones.
	opt.CE = cfg.Obs.CE().Recorder(refined.Name())
	p, _, err := opt.PlanWithMaterialized(q, rctrl.Materialized())
	return p, err
}
