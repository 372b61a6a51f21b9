package exec

import (
	"fmt"

	"github.com/lpce-db/lpce/internal/plan"
)

// BatchSize is the number of tuples a batch holds at most. 1024 projected
// rows — a handful of int64 columns — sit well within L2 while amortizing the
// per-call overhead (interface dispatch, work charging, cancellation polls)
// over a thousand tuples. It deliberately equals cancelPollInterval so the
// batch path polls the context about as often as the scalar path.
const BatchSize = 1024

// Batch is a reusable column-width × BatchSize tuple buffer backed by a
// single flat arena, in row-major order. The width is the projected tuple
// width and may be 0 (no column is read above the producer): such a batch
// has no arena and carries only its row count. A batch returned by NextBatch —
// and every row view derived from it — is valid only until the next
// NextBatch or Close call on the producing operator; consumers that need
// the data longer must copy it (drainBatch does).
type Batch struct {
	width int
	n     int
	data  []int64
}

// Len reports the number of tuples in the batch.
func (b *Batch) Len() int { return b.n }

// Width reports the tuple width.
func (b *Batch) Width() int { return b.width }

// Row returns a view of tuple i. The full-slice expression pins the
// capacity so an append by a misbehaving consumer cannot clobber the
// neighbouring tuple.
func (b *Batch) Row(i int) []int64 {
	off := i * b.width
	return b.data[off : off+b.width : off+b.width]
}

// reset prepares the batch for refilling at the given tuple width, growing
// the arena once and then reusing it for the operator's lifetime.
func (b *Batch) reset(width int) {
	b.width = width
	b.n = 0
	if cap(b.data) < width*BatchSize {
		b.data = make([]int64, width*BatchSize)
	}
	b.data = b.data[:width*BatchSize]
}

// pushRow appends an uninitialized tuple and returns its view for the
// caller to fill (typically via joinMerge.mergeFlat or copy).
func (b *Batch) pushRow() []int64 {
	off := b.n * b.width
	b.n++
	return b.data[off : off+b.width : off+b.width]
}

// full reports whether the batch has reached capacity.
func (b *Batch) full() bool { return b.n >= BatchSize }

// BatchOperator is the vectorized Volcano interface: NextBatch returns up
// to BatchSize tuples at a time, or nil at exhaustion (never an empty
// batch). Operators charge the same work totals as their scalar
// counterparts, lumped at batch granularity, and stamp plan.Node.TrueCard
// at exhaustion exactly like the scalar path.
type BatchOperator interface {
	Open(ctx *Ctx) error
	NextBatch(ctx *Ctx) (*Batch, error)
	Close()
}

// BuildBatch constructs the batch operator tree for a physical plan. It
// mirrors Build: with ctx.Trace set every operator is wrapped in a
// stats-collecting shim, and ctx.Wrap — a scalar-level interceptor — is
// honoured by lowering the batch operator to the scalar interface, offering
// it to Wrap, and lifting the result back only when Wrap actually replaced
// it, so the common not-wrapped case stays on the batch fast path.
func BuildBatch(ctx *Ctx, n *plan.Node) (BatchOperator, error) {
	var op BatchOperator
	var err error
	switch n.Op {
	case plan.SeqScan:
		op = newBatchSeqScan(ctx, n)
	case plan.IndexScan:
		op, err = newBatchIndexScan(ctx, n)
	case plan.MatScan:
		op = newBatchMatScan(ctx, n)
	case plan.HashJoin:
		op, err = newBatchHashJoin(ctx, n)
	case plan.MergeJoin:
		op, err = newBatchMergeJoin(ctx, n)
	case plan.NestLoopJoin:
		op, err = newBatchNLJoin(ctx, n)
	default:
		return nil, fmt.Errorf("exec: unknown operator %v", n.Op)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Trace != nil {
		op = &tracedBatchOp{inner: op, node: n, tr: ctx.Trace}
	}
	if ctx.Wrap != nil {
		low := &lowerOp{inner: op}
		wrapped := ctx.Wrap(ctx, low, n)
		if wrapped != Operator(low) {
			op = &liftOp{inner: wrapped}
		}
	}
	if testBatchWrap != nil {
		op = testBatchWrap(op, n)
	}
	return op, nil
}

// testBatchWrap, when set by a test, wraps every batch operator BuildBatch
// constructs (outermost). The lifecycle suite uses it to install
// close-counting and Open-failing shims without touching ctx.Wrap, which
// would route execution through the scalar lower/lift adapters.
var testBatchWrap func(op BatchOperator, n *plan.Node) BatchOperator

// RunBatch executes the plan through the batch path and returns the
// COUNT(*) result — the vectorized equivalent of Run, with identical
// counts, TrueCard stamps, checkpoint sequences, and typed errors.
func RunBatch(ctx *Ctx, root *plan.Node) (int, error) {
	op, err := BuildBatch(ctx, root)
	if err != nil {
		return 0, err
	}
	op = maybeExchange(ctx, op)
	defer op.Close()
	if err := op.Open(ctx); err != nil {
		return 0, err
	}
	count := 0
	for {
		b, err := op.NextBatch(ctx)
		if err != nil {
			return 0, err
		}
		if b == nil {
			break
		}
		count += b.n
	}
	root.TrueCard = float64(count)
	return count, nil
}

// drainBatch pulls every batch from a child operator into one flat arena
// and returns stable row views into it — the batch path's materialization
// routine. It charges the same per-tuple materialization cost as drain
// (matCost work plus one materialized row each), lumped per batch; when
// the MaxMatRows limit falls inside a batch, work is charged only for the
// tuples up to and including the first exceeding row, so the work counter
// and the *ResourceError payload match the scalar path exactly.
func drainBatch(ctx *Ctx, node *plan.Node, op BatchOperator) ([][]int64, error) {
	op = maybeExchange(ctx, op)
	// Close the child on every exit, not just the clean one: a budget or
	// cancellation error during build-side materialization must still tear
	// down the child's subtree. Closes are idempotent, so callers like
	// batchHashJoin.Close closing the same child again is harmless.
	defer op.Close()
	if err := op.Open(ctx); err != nil {
		return nil, err
	}
	w := ctx.Layout(node.Tables).Width()
	cost := matCost(ctx, node)
	var arena []int64
	total := 0
	for {
		b, err := op.NextBatch(ctx)
		if err != nil {
			return nil, err
		}
		if b == nil {
			break
		}
		n := int64(b.n)
		if ctx.MaxMatRows > 0 && ctx.matRows+n > ctx.MaxMatRows {
			// the limit trips at row k of this batch: charge work for
			// exactly k tuples (budget errors take precedence, as in the
			// scalar loop), then fail on the materialized-rows budget
			k := ctx.MaxMatRows - ctx.matRows + 1
			if err := ctx.charge(k * cost); err != nil {
				return nil, err
			}
			return nil, ctx.chargeMatN(n)
		}
		if err := ctx.charge(n * cost); err != nil {
			return nil, err
		}
		if err := ctx.chargeMatN(n); err != nil {
			return nil, err
		}
		arena = append(arena, b.data[:b.n*b.width]...)
		total += b.n
	}
	node.TrueCard = float64(total)
	return rowViews(arena, w, total), nil
}

// lowerOp adapts a BatchOperator to the scalar Operator interface so
// scalar-level wrappers (fault injection, unconverted consumers) compose
// with batch producers. Tuples are served as views into the current batch,
// which stays valid until the next pull — matching the scalar contract
// that a tuple is valid until the next Next call.
type lowerOp struct {
	inner BatchOperator
	cur   *Batch
	i     int
}

func (l *lowerOp) Open(ctx *Ctx) error {
	l.cur, l.i = nil, 0
	return l.inner.Open(ctx)
}

func (l *lowerOp) Next(ctx *Ctx) (Tuple, bool, error) {
	for l.cur == nil || l.i >= l.cur.n {
		b, err := l.inner.NextBatch(ctx)
		if err != nil {
			return nil, false, err
		}
		if b == nil {
			return nil, false, nil
		}
		l.cur, l.i = b, 0
	}
	t := l.cur.Row(l.i)
	l.i++
	return t, true, nil
}

func (l *lowerOp) Close() { l.inner.Close() }

// liftOp adapts a scalar Operator to the batch interface by accumulating
// its tuples into a reusable batch. Each tuple is copied because scalar
// operators reuse their output buffer between Next calls.
type liftOp struct {
	inner Operator
	out   Batch
	done  bool
}

func (l *liftOp) Open(ctx *Ctx) error {
	l.done = false
	return l.inner.Open(ctx)
}

func (l *liftOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if l.done {
		return nil, nil
	}
	started := false
	for {
		t, ok, err := l.inner.Next(ctx)
		if err != nil {
			return nil, err
		}
		if !ok {
			l.done = true
			if !started {
				return nil, nil
			}
			return &l.out, nil
		}
		if !started {
			l.out.reset(len(t))
			started = true
		}
		copy(l.out.pushRow(), t)
		if l.out.full() {
			return &l.out, nil
		}
	}
}

func (l *liftOp) Close() { l.inner.Close() }
