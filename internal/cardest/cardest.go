// Package cardest defines the estimator interface shared by every
// cardinality estimator in the repository — the histogram baseline, the
// query-driven learned models (MSCN, TLSTM, Flow-Loss, LPCE-I), the
// data-driven substitutes, and the LPCE-R refinement wrapper — plus the
// timing instrumentation the end-to-end experiments use to attribute model
// inference time (T_I in Eq. 7 of the paper).
package cardest

import (
	"time"

	"github.com/lpce-db/lpce/internal/query"
)

// Estimator estimates the result cardinality of joining a subset of a
// query's relations (with all applicable filter predicates pushed down).
// The optimizer calls it once per connected subset during plan enumeration,
// so a Join-eight query costs up to 2⁹−1 = 511 estimates — which, through a
// SessionEstimator's session, is 511 recurrent-cell applications rather
// than 511 whole-tree forward passes.
//
// Implementations must be safe for concurrent EstimateSubset calls and must
// return the same value for the same (query, subset) pair regardless of
// call order — the concurrent workload runner shares one estimator across
// all workers and asserts parallel runs reproduce serial ones exactly.
// Wrap an unaudited estimator in Locked if it mutates internal state.
type Estimator interface {
	Name() string
	EstimateSubset(q *query.Query, mask query.BitSet) float64
}

// SessionEstimator is optionally implemented by estimators that can share
// work across the estimates of one plan search. BeginQuery returns an
// estimator bound to q that must return exactly what the stateless
// EstimateSubset would, for any call order; it is used by one goroutine,
// for q only, and is simply dropped when the search ends. All work a session
// defers must happen inside its EstimateSubset (or inside BeginQuery), so
// Timed attributes it to inference.
type SessionEstimator interface {
	Estimator
	BeginQuery(q *query.Query) Estimator
}

// BeginQuery opens est's session for one plan search over q, or returns est
// itself when it has none.
func BeginQuery(est Estimator, q *query.Query) Estimator {
	if s, ok := est.(SessionEstimator); ok {
		return s.BeginQuery(q)
	}
	return est
}

// Timed wraps an estimator and accumulates the wall-clock time spent inside
// it. The engine reads Time as the query's model inference time T_I.
//
// Timed is deliberately NOT safe for concurrent use: it is per-query
// instrumentation, and the engine allocates a fresh Timed per execution.
// Concurrent workloads share the inner estimator, never the Timed wrapper.
type Timed struct {
	Inner Estimator
	Time  time.Duration
	Calls int
}

// NewTimed wraps inner.
func NewTimed(inner Estimator) *Timed { return &Timed{Inner: inner} }

// Name implements Estimator.
func (t *Timed) Name() string { return t.Inner.Name() }

// EstimateSubset implements Estimator, timing the inner call.
func (t *Timed) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	return timedSession{t, t.Inner}.EstimateSubset(q, mask)
}

// BeginQuery implements SessionEstimator: it forwards to the inner
// estimator and keeps charging the session's set-up and calls to t.
func (t *Timed) BeginQuery(q *query.Query) Estimator {
	start := time.Now()
	inner := BeginQuery(t.Inner, q)
	t.Time += time.Since(start)
	return timedSession{t, inner}
}

// timedSession times calls to inner (the wrapped estimator or its session)
// into t's totals.
type timedSession struct {
	t     *Timed
	inner Estimator
}

func (s timedSession) Name() string { return s.inner.Name() }

func (s timedSession) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	start := time.Now()
	v := s.inner.EstimateSubset(q, mask)
	s.t.Time += time.Since(start)
	s.t.Calls++
	return v
}

// Reset clears the accumulated time between queries.
func (t *Timed) Reset() {
	t.Time = 0
	t.Calls = 0
}

// Fixed returns a constant for every subset; used in tests to force the
// optimizer into known plans.
type Fixed struct {
	Value float64
	Label string
}

// Name implements Estimator.
func (f Fixed) Name() string {
	if f.Label != "" {
		return f.Label
	}
	return "fixed"
}

// EstimateSubset implements Estimator.
func (f Fixed) EstimateSubset(*query.Query, query.BitSet) float64 { return f.Value }

// FuncEstimator adapts a closure; used by tests and by the re-optimization
// controller to overlay exact cardinalities of executed sub-plans.
type FuncEstimator struct {
	Label string
	Fn    func(q *query.Query, mask query.BitSet) float64
}

// Name implements Estimator.
func (f FuncEstimator) Name() string { return f.Label }

// EstimateSubset implements Estimator.
func (f FuncEstimator) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	return f.Fn(q, mask)
}
