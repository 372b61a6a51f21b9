package exec

import (
	"fmt"

	"github.com/lpce-db/lpce/internal/plan"
)

// BatchSize is the number of tuples a batch holds at most. 1024 projected
// rows — a handful of int64 columns — sit well within L2 while amortizing the
// per-call overhead (interface dispatch, work charging, cancellation polls)
// over a thousand tuples. It deliberately equals cancelPollInterval, so a
// batch boundary falls about once per cancellation poll. The hash join
// charges a probe batch's lookups (at most BatchSize) and then its
// candidates, flushing once the lump reaches flushAt, or after every probe
// batch on a unique build. A candidate range, or a unique build's matches,
// adds at most BatchSize more, so at most 2 × BatchSize work units accrue
// between its flushes.
const BatchSize = 1024

// Batch is a reusable column-width × BatchSize tuple buffer backed by a
// single flat arena, in row-major order. The width is the projected tuple
// width and may be 0 (no column is read above the producer): such a batch
// has no arena and carries only its row count. A batch returned by NextBatch —
// and every row view derived from it — is valid only until the next
// NextBatch or Close call on the producing operator; consumers that need
// the data longer must copy it (drainBatch does). The arena is pooled (see
// pool.go): the producer returns it on Close, after which it may hold
// another query's rows.
type Batch struct {
	width int
	n     int
	data  []int64
	box   *[]int64 // the pooled arena data is taken from; nil = none
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

// reset prepares the batch for refilling at the given tuple width, taking
// an arena from the pool once and then reusing it until release.
func (b *Batch) reset(width int) {
	b.width = width
	b.n = 0
	if n := width * BatchSize; len(b.data) != n {
		b.release()
		if n > 0 {
			b.box = int64Pool.get(n)
			b.data = *b.box
		}
	}
}

// release returns the arena to the pool. The batch stays usable: the next
// reset takes a fresh arena.
func (b *Batch) release() {
	int64Pool.put(b.box)
	b.box, b.data, b.n = nil, nil, 0
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
// batch). Operators charge work per tuple examined, lumped at batch
// granularity, and stamp plan.Node.TrueCard at exhaustion.
type BatchOperator interface {
	Open(ctx *Ctx) error
	NextBatch(ctx *Ctx) (*Batch, error)
	Close()
}

// Build constructs the operator tree for a physical plan. With ctx.Trace set
// every operator (this node and, through the recursive constructor calls,
// all children) is wrapped in a stats-collecting shim; ctx.Wrap, when set,
// is applied outermost.
func Build(ctx *Ctx, n *plan.Node) (BatchOperator, error) {
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
	case plan.NestLoopJoin:
		op, err = newBatchNLJoin(ctx, n)
	default:
		return nil, fmt.Errorf("exec: unknown operator %v", n.Op)
	}
	if err != nil {
		return nil, err
	}
	if ctx.Trace != nil {
		op = &tracedOp{inner: op, node: n, tr: ctx.Trace}
	}
	if ctx.Wrap != nil {
		op = ctx.Wrap(ctx, op, n)
	}
	return op, nil
}

// Run executes the plan and returns the COUNT(*) result. On a *ReoptSignal,
// ErrBudget or any other error the rows counted so far are discarded.
func Run(ctx *Ctx, root *plan.Node) (int, error) {
	op, err := Build(ctx, root)
	if err != nil {
		return 0, err
	}
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

// drainBatch pulls every batch from a child operator into one flat arena,
// stamps the child's true cardinality, and returns the arena as a row set —
// the shared materialization routine of the pipeline breakers. Each
// tuple costs matCost work plus one materialized row, lumped per batch; when
// the MaxMatRows limit falls inside a batch, work is charged only for the
// tuples up to and including the first exceeding row, so the work counter
// and the *ResourceError payload do not depend on batch boundaries.
func drainBatch(ctx *Ctx, node *plan.Node, op BatchOperator) (plan.Rows, error) {
	// Close the child on every exit, not just the clean one: a budget or
	// cancellation error during build-side materialization must still tear
	// down the child's subtree. Closes are idempotent, so callers like
	// batchHashJoin.Close closing the same child again is harmless.
	defer op.Close()
	if err := op.Open(ctx); err != nil {
		return plan.Rows{}, err
	}
	rows := plan.Rows{Width: ctx.Layout(node.Tables).Width()}
	cost := matCost(ctx, node)
	for {
		b, err := op.NextBatch(ctx)
		if err != nil {
			return plan.Rows{}, err
		}
		if b == nil {
			break
		}
		n := int64(b.n)
		if ctx.MaxMatRows > 0 && ctx.matRows+n > ctx.MaxMatRows {
			// the limit trips at row k of this batch: charge work for
			// exactly k tuples (a budget error takes precedence), then fail
			// on the materialized-rows budget
			k := ctx.MaxMatRows - ctx.matRows + 1
			if err := ctx.charge(k * cost); err != nil {
				return plan.Rows{}, err
			}
			return plan.Rows{}, ctx.chargeMatN(n)
		}
		if err := ctx.charge(n * cost); err != nil {
			return plan.Rows{}, err
		}
		if err := ctx.chargeMatN(n); err != nil {
			return plan.Rows{}, err
		}
		rows.Data = append(rows.Data, b.data[:b.n*b.width]...)
		rows.N += b.n
	}
	node.TrueCard = float64(rows.N)
	return rows, nil
}
