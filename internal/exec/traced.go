package exec

import (
	"time"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
)

// tracedOp wraps an operator with runtime-stats collection: rows and
// batches produced, inclusive wall time, and the estimated-vs-actual
// cardinality of the plan node. Build installs it around every operator
// when ctx.Trace is set; with tracing disabled the wrapper does not exist,
// so the trace layer's disabled cost is exactly zero. Bookkeeping happens
// once per batch, not once per tuple.
//
// The clock starts at Open and stops when the operator exhausts (NextBatch
// returns nil without an error), giving EXPLAIN ANALYZE-style inclusive
// time; an operator unwound early (budget exhaustion, re-optimization
// pause) is stamped at teardown instead and reports ActualRows = -1,
// marking its cardinality as unknown.
type tracedOp struct {
	inner BatchOperator
	node  *plan.Node
	tr    *obs.ExecTrace

	start     time.Time
	wall      time.Duration
	rows      int64
	batches   int64
	exhausted bool
	flushed   bool
}

func (t *tracedOp) Open(ctx *Ctx) error {
	t.start = time.Now()
	t.wall = 0
	t.rows = 0
	t.batches = 0
	t.exhausted = false
	t.flushed = false
	return t.inner.Open(ctx)
}

func (t *tracedOp) NextBatch(ctx *Ctx) (*Batch, error) {
	b, err := t.inner.NextBatch(ctx)
	if b != nil {
		t.rows += int64(b.n)
		t.batches++
	} else if err == nil && !t.exhausted {
		t.exhausted = true
		t.wall = time.Since(t.start)
	}
	return b, err
}

// Close flushes the operator's stats exactly once, then tears down the
// inner operator. Pipeline breakers close their drained children early, so
// a plan's stats arrive roughly in completion order.
func (t *tracedOp) Close() {
	if !t.flushed && !t.start.IsZero() {
		t.flushed = true
		wall := t.wall
		if !t.exhausted {
			wall = time.Since(t.start)
		}
		actual := float64(-1)
		if t.exhausted {
			actual = float64(t.rows)
		}
		t.tr.AddOp(obs.OpStats{
			Op:         t.node.Op.String(),
			Mask:       t.node.Tables,
			EstRows:    t.node.EstCard,
			ActualRows: actual,
			Rows:       t.rows,
			Batches:    t.batches,
			Wall:       wall,
		})
	}
	t.inner.Close()
}
