package exec

import (
	"fmt"
	"slices"

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
// between its flushes. A zero-width batch carries only a count, so the
// general hash join lets one hold up to zeroWidthRows tuples; its charges
// keep the same bound.
const BatchSize = 1024

// zeroWidthRows is the most tuples a zero-width batch of the general hash
// join carries: a count-only fan-out root then returns one batch per 65,536
// rows instead of one per 1,024, and a tracer reads the clock per batch.
const zeroWidthRows = 64 * BatchSize

// Batch is a reusable buffer of up to BatchSize tuples backed by a single
// flat arena, in row-major order. The width is the projected (logical)
// tuple width and may be 0 (no column is read above the producer): such a
// batch has no arena and carries only its row count (up to zeroWidthRows
// from the general hash join).
//
// A physical row of the arena is stride values long. A dense batch — what
// every operator but the hash join returns — has stride == width and a nil
// column map, so logical column c of row i sits at data[i*stride+c]. A
// view (see batchHashJoin.probeUnique) re-labels another batch's arena
// instead of copying it: it shares that batch's data and stride, and cols
// maps each logical column to its offset in a physical row. A consumer
// resolves its column offsets through cols once per batch (a no-op when
// cols is nil) and then reads physical rows; drainBatch gathers a view
// back into the dense logical layout.
//
// A batch returned by NextBatch — and every row derived from it — is valid
// only until the next NextBatch or Close call on the producing operator;
// consumers that need the data longer must copy it (drainBatch does). A
// view lives exactly as long: its producer pulls and closes the batch it
// re-labels only from its own NextBatch and Close. The arena belongs to
// the batch that took it from the pool (box): the producer returns it on
// Close, after which it may hold another query's rows. A view never owns
// an arena (box is nil), so releasing it pools nothing.
type Batch struct {
	width  int
	stride int
	cols   []int // logical column → offset in a physical row; nil = dense
	n      int
	data   []int64
	box    *[]int64 // the pooled arena data is taken from; nil = none
}

// Len reports the number of tuples in the batch.
func (b *Batch) Len() int { return b.n }

// Width reports the logical tuple width.
func (b *Batch) Width() int { return b.width }

// row returns physical row i: stride values, read at resolved offsets. The
// full-slice expression pins the capacity so an append by a misbehaving
// consumer cannot clobber the neighbouring row.
func (b *Batch) row(i int) []int64 {
	off := i * b.stride
	return b.data[off : off+b.stride : off+b.stride]
}

// appendRows appends the batch's rows to dst in the dense logical layout,
// gathering a view's columns.
func (b *Batch) appendRows(dst []int64) []int64 {
	if b.cols == nil {
		return append(dst, b.data[:b.n*b.width]...)
	}
	k := len(dst)
	dst = slices.Grow(dst, b.n*b.width)[:k+b.n*b.width]
	for i := range b.n {
		r := b.row(i)
		for _, c := range b.cols {
			dst[k] = r[c]
			k++
		}
	}
	return dst
}

// reset prepares the batch for refilling at the given tuple width, taking
// an arena from the pool once and then reusing it until release.
func (b *Batch) reset(width int) {
	b.width, b.stride, b.cols = width, width, nil
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

// pushRow appends an uninitialized tuple to a dense batch and returns it
// for the caller to fill (typically via joinMerge.mergeFlat or copy).
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
	ctx.root = root
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
		rows.Data = b.appendRows(rows.Data)
		rows.N += b.n
	}
	node.TrueCard = float64(rows.N)
	return rows, nil
}
