package obs

import (
	"sync"
	"time"

	"github.com/lpce-db/lpce/internal/query"
)

// OpStats is one operator's runtime record from one execution attempt: what
// the optimizer predicted, what actually happened, and how long it took.
// Wall and Work count only what happened inside the operator's own calls,
// its children's calls included and its parent's work between pulls not
// (the EXPLAIN ANALYZE convention).
type OpStats struct {
	// Op is the physical operator name (SeqScan, HashJoin, ...), which for
	// join nodes identifies the join algorithm chosen.
	Op string `json:"op"`
	// Mask is the query-relation subset the operator covers; unique per
	// plan tree, so it keys operator lookup during rendering.
	Mask query.BitSet `json:"mask"`
	// EstRows is the optimizer's cardinality estimate for the subset.
	EstRows float64 `json:"est_rows"`
	// ActualRows is the exact output cardinality, or -1 when the operator
	// did not run to completion (budget exhaustion or a re-optimization
	// pause unwound it first).
	ActualRows float64 `json:"actual_rows"`
	// Rows counts the tuples the operator emitted before stopping; equals
	// ActualRows for completed operators.
	Rows int64 `json:"rows"`
	// Batches counts the tuple batches the operator emitted; zero for an
	// operator torn down before it emitted one.
	Batches int64 `json:"batches,omitempty"`
	// Wall is the wall-clock time spent inside the operator's Open and
	// NextBatch calls, up to exhaustion or to the error that unwound it.
	Wall time.Duration `json:"wall_ns"`
	// Work is the executor work (Ctx.Work units) charged inside those same
	// calls; the root operator's equals the attempt's total.
	Work int64 `json:"work"`
}

// QError returns the q-error between the operator's estimate and its actual
// cardinality, or 0 when the actual is unknown.
func (s OpStats) QError() float64 {
	if s.ActualRows < 0 {
		return 0
	}
	return QError(s.ActualRows, s.EstRows)
}

// QError is the symmetric relative error max(act/est, est/act) with both
// sides clamped to at least one row, the paper's Eq. 2.
func QError(actual, est float64) float64 {
	if actual < 1 {
		actual = 1
	}
	if est < 1 {
		est = 1
	}
	if actual > est {
		return actual / est
	}
	return est / actual
}

// ExecTrace records one execution attempt of one plan. It is written by a
// single executor goroutine and read only after the attempt finishes, so it
// needs no lock. All methods are nil-safe no-ops.
type ExecTrace struct {
	// Round is the attempt index within the query (0 = initial plan, n>0 =
	// after the n-th re-optimization).
	Round int `json:"round"`
	// Ops holds per-operator stats in teardown order.
	Ops []OpStats `json:"ops"`
}

// AddOp appends one operator record.
func (t *ExecTrace) AddOp(s OpStats) {
	if t == nil {
		return
	}
	t.Ops = append(t.Ops, s)
}

// ByMask returns the stats of the operator covering mask, or nil.
func (t *ExecTrace) ByMask(mask query.BitSet) *OpStats {
	if t == nil {
		return nil
	}
	for i := range t.Ops {
		if t.Ops[i].Mask == mask {
			return &t.Ops[i]
		}
	}
	return nil
}

// ReoptEvent records one materialization checkpoint or pipelined check seen
// by the re-optimization controller: the observed cardinality, the q-error
// against the estimate, and whether re-planning fired (and if not, why).
type ReoptEvent struct {
	Round      int          `json:"round"`
	Op         string       `json:"op"`
	Mask       query.BitSet `json:"mask"`
	EstRows    float64      `json:"est_rows"`
	ActualRows float64      `json:"actual_rows"`
	QError     float64      `json:"q_error"`
	// LowerBound marks a pipelined check: the join was still streaming, so
	// ActualRows and QError are lower bounds, not the exact values.
	LowerBound bool `json:"lower_bound,omitempty"`
	// Triggered reports whether this checkpoint paused execution for
	// re-planning.
	Triggered bool `json:"triggered"`
	// Suppressed names the rule that kept a checkpoint from triggering:
	// "below-threshold", "max-reopts", "no-estimate", "remaining-cost", or
	// "" when the event triggered.
	Suppressed string `json:"suppressed,omitempty"`
	// PlanDiff summarises how the plan changed after a triggered event
	// ("plan unchanged" when re-planning chose the same plan again).
	PlanDiff string `json:"plan_diff,omitempty"`
}

// QueryTrace is the structured trace of one query's end-to-end execution:
// one ExecTrace per attempt, the checkpoint events between them, and the
// paper's four-phase time decomposition. It is written by the one goroutine
// executing the query; Observer.Observe publishes it for aggregation. All
// methods are nil-safe no-ops.
type QueryTrace struct {
	Fingerprint uint64 `json:"fingerprint"`
	Estimator   string `json:"estimator"`

	Rounds []*ExecTrace `json:"rounds"`
	Events []ReoptEvent `json:"events,omitempty"`

	PlanTime  time.Duration `json:"plan_ns"`
	InferTime time.Duration `json:"infer_ns"`
	ReoptTime time.Duration `json:"reopt_ns"`
	ExecTime  time.Duration `json:"exec_ns"`

	Count    int  `json:"count"`
	TimedOut bool `json:"timed_out,omitempty"`
	// ExecWork is the executor work units consumed across all attempts — the
	// deterministic counterpart of ExecTime.
	ExecWork int64 `json:"exec_work"`
}

// NewRound starts the trace of the next execution attempt and returns it
// (nil from a nil QueryTrace, which downstream recording tolerates).
func (q *QueryTrace) NewRound() *ExecTrace {
	if q == nil {
		return nil
	}
	t := &ExecTrace{Round: len(q.Rounds)}
	q.Rounds = append(q.Rounds, t)
	return t
}

// FinalRound returns the last execution attempt's trace, or nil.
func (q *QueryTrace) FinalRound() *ExecTrace {
	if q == nil || len(q.Rounds) == 0 {
		return nil
	}
	return q.Rounds[len(q.Rounds)-1]
}

// AddEvent records a checkpoint event, stamping it with the current round.
func (q *QueryTrace) AddEvent(e ReoptEvent) {
	if q == nil {
		return
	}
	if n := len(q.Rounds); n > 0 {
		e.Round = n - 1
	}
	q.Events = append(q.Events, e)
}

// AttachPlanDiff annotates the most recent triggered event with the
// plan-switch summary computed after re-planning.
func (q *QueryTrace) AttachPlanDiff(diff string) {
	if q == nil {
		return
	}
	for i := len(q.Events) - 1; i >= 0; i-- {
		if q.Events[i].Triggered {
			q.Events[i].PlanDiff = diff
			return
		}
	}
}

// Observer bundles the three observability pieces — metrics registry,
// per-query traces, CE evaluation — behind one handle that the engine
// threads through a run. It is safe for concurrent use by parallel workers;
// a nil Observer (and everything obtained through it) records nothing.
type Observer struct {
	metrics *Registry
	ce      *CEEval

	mu sync.Mutex
	// traces holds the published traces oldest first — until traceCap is
	// reached; from then on it is a ring of traceCap entries whose oldest is
	// at head, and publishing overwrites that oldest in O(1).
	traces []*QueryTrace
	head   int
	// traceCap, when > 0, bounds the retained traces: once full, publishing
	// a new trace drops the oldest. Long-running processes set it so an
	// observer over millions of queries keeps a window, not a leak.
	traceCap int
	dropped  int64
}

// NewObserver returns an observer with a fresh registry and CE evaluator.
func NewObserver() *Observer {
	return &Observer{metrics: NewRegistry(), ce: NewCEEval()}
}

// Registry returns the metrics registry (nil from a nil observer).
func (o *Observer) Registry() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// CE returns the CE evaluator (nil from a nil observer).
func (o *Observer) CE() *CEEval {
	if o == nil {
		return nil
	}
	return o.ce
}

// NewQueryTrace returns an unpublished trace for one query execution; the
// caller publishes it with Observe once the query finishes. Returns nil
// from a nil observer.
func (o *Observer) NewQueryTrace(fingerprint uint64, estimator string) *QueryTrace {
	if o == nil {
		return nil
	}
	return &QueryTrace{Fingerprint: fingerprint, Estimator: estimator}
}

// SetTraceCap bounds the retained query traces to the most recent n; 0
// restores the default unbounded retention. The metrics registry and CE
// evaluation are unaffected — only the per-query trace window is bounded.
func (o *Observer) SetTraceCap(n int) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.traces, o.head = o.ordered(), 0
	if n > 0 && len(o.traces) > n {
		o.dropped += int64(len(o.traces) - n)
		// a fresh array, so the dropped traces are not pinned by the old one
		o.traces = append([]*QueryTrace(nil), o.traces[len(o.traces)-n:]...)
	}
	o.traceCap = n
	o.mu.Unlock()
}

// DroppedTraces returns how many traces the cap has discarded.
func (o *Observer) DroppedTraces() int64 {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.dropped
}

// Observe publishes a finished query trace for aggregation. Once the
// window is full it overwrites the oldest trace in place: the cost of a
// publish does not depend on the window size.
func (o *Observer) Observe(t *QueryTrace) {
	if o == nil || t == nil {
		return
	}
	o.mu.Lock()
	if o.traceCap > 0 && len(o.traces) == o.traceCap {
		o.traces[o.head] = t
		o.head = (o.head + 1) % o.traceCap
		o.dropped++
	} else {
		o.traces = append(o.traces, t)
	}
	o.mu.Unlock()
}

// Traces returns a snapshot of the published query traces, oldest first.
func (o *Observer) Traces() []*QueryTrace {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.ordered()
}

// ordered returns a copy of the retained traces, oldest first. o.mu must be
// held.
func (o *Observer) ordered() []*QueryTrace {
	out := make([]*QueryTrace, 0, len(o.traces))
	out = append(out, o.traces[o.head:]...)
	return append(out, o.traces[:o.head]...)
}
