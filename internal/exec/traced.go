package exec

import (
	"time"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
)

// tracedOp wraps an operator with runtime-stats collection: rows and
// batches produced, the wall time and work spent inside the operator, and
// the estimated-vs-actual cardinality of the plan node. Build installs it
// around every operator when ctx.Trace is set; with tracing disabled the
// wrapper does not exist, so the trace layer's disabled cost is exactly
// zero. Bookkeeping happens once per call, not once per tuple, but it
// includes two clock reads, which an operator returning millions of cheap
// batches (a count-only fan-out root) feels.
//
// Time and work accrue only inside the operator's own Open and NextBatch
// calls, the EXPLAIN ANALYZE convention: its children's calls, made from
// inside those, are included, while whatever its parent does between pulls
// is not. An operator unwound early (budget exhaustion, re-optimization
// pause) reports what accrued until then and ActualRows = -1, marking its
// cardinality as unknown.
type tracedOp struct {
	inner BatchOperator
	node  *plan.Node
	tr    *obs.ExecTrace

	wall      time.Duration
	work      int64
	rows      int64
	batches   int64
	opened    bool
	exhausted bool
	flushed   bool
}

// clockBase anchors clock, which reads only the monotonic clock: time.Now
// also reads the wall clock, and a trace reads the clock twice per call.
var clockBase = time.Now()

func clock() time.Duration { return time.Since(clockBase) }

func (t *tracedOp) Open(ctx *Ctx) error {
	t.wall, t.work = 0, 0
	t.rows, t.batches = 0, 0
	t.opened, t.exhausted, t.flushed = true, false, false
	start, work := clock(), ctx.work
	err := t.inner.Open(ctx)
	t.wall += clock() - start
	t.work += ctx.work - work
	return err
}

func (t *tracedOp) NextBatch(ctx *Ctx) (*Batch, error) {
	start, work := clock(), ctx.work
	b, err := t.inner.NextBatch(ctx)
	t.wall += clock() - start
	t.work += ctx.work - work
	if b != nil {
		t.rows += int64(b.n)
		t.batches++
	} else if err == nil {
		t.exhausted = true
	}
	return b, err
}

// Close flushes the operator's stats exactly once, then tears down the
// inner operator. Pipeline breakers close their drained children early, so
// a plan's stats arrive roughly in completion order.
func (t *tracedOp) Close() {
	if !t.flushed && t.opened {
		t.flushed = true
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
			Wall:       t.wall,
			Work:       t.work,
		})
	}
	t.inner.Close()
}
