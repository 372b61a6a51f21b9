// Package exec implements the pipelined execution engine: Volcano-style
// operators that pull batches of up to BatchSize tuples (batch.go) on the
// caller's goroutine. It mirrors the PostgreSQL behaviours the paper depends
// on (§6):
//
//   - pipelined processing: tuples flow through operators without
//     materialization except at pipeline breakers;
//   - pipeline breakers that buffer tuples: the build side of a hash join
//     and (added by the paper, Figure 10c) the outer side of a nested loop
//     join. PostgreSQL's third join, the merge join (Figure 10b), has no
//     operator here: nothing emits rows ordered on a join key, so it would
//     sort both inputs, which costs more than a hash build on every input;
//   - checkpoints at those breakers: when a sub-plan's output has been
//     fully buffered its exact cardinality is known, and a controller is
//     notified so it can compare the actual cardinality against the
//     optimizer's estimate and trigger re-optimization.
//
// Every operator counts its output rows, so a completed execution leaves
// exact cardinalities (the paper's EXPLAIN ANALYZE counters) on the plan.
package exec

import (
	"context"
	"errors"
	"fmt"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// Tuple is one intermediate-result row: the live columns of the covered
// tables — those some join above can still read — in ascending local-index
// order (see plan.Layout). A tuple covering every table of the query is
// empty: a COUNT(*) root only counts.
type Tuple = []int64

// ErrBudget is returned when a query exceeds the context's work budget; the
// engine reports such queries as timeouts instead of running pathological
// plans for hours.
var ErrBudget = errors.New("exec: work budget exceeded")

// ResourceError reports that one query exceeded a per-query resource budget
// (materialized intermediate rows, the rows one hash build can index). It
// fails only the offending query — never the process or the worker pool —
// so callers match it with errors.As and degrade gracefully.
type ResourceError struct {
	Resource string // "materialized-rows" or "hash-build-rows"
	Limit    int64
	Used     int64
}

func (e *ResourceError) Error() string {
	return fmt.Sprintf("exec: %s budget exceeded (limit %d, used %d)", e.Resource, e.Limit, e.Used)
}

// cancelPollInterval is how many work units pass between cooperative
// cancellation checks. Every scan and join inner loop charges work per
// tuple, so polling the context once per interval bounds the cancellation
// latency to the time of ~1k tuple operations while keeping the per-tuple
// overhead negligible.
const cancelPollInterval = 1024

// ReoptSignal is returned through the operator stack when the controller
// decides to pause execution and re-optimize. It is an error value so it
// unwinds the pipelined iterators without extra plumbing.
type ReoptSignal struct {
	Node   *plan.Node // sub-plan whose materialization triggered the signal
	Actual int        // exact cardinality observed
}

func (r *ReoptSignal) Error() string {
	return fmt.Sprintf("exec: re-optimization requested at %v (est %.0f, actual %d)",
		r.Node.Op, r.Node.EstCard, r.Actual)
}

// Controller observes materialization checkpoints. rows is the sub-plan's
// complete output as one flat arena in the projected layout of node.Tables,
// in drain order.
// OnMaterialized may retain rows — the executor never writes the arena
// again — and may return a *ReoptSignal to pause execution.
type Controller interface {
	OnMaterialized(node *plan.Node, rows plan.Rows) error
}

// NopController ignores all checkpoints (plain PostgreSQL behaviour).
type NopController struct{}

// OnMaterialized implements Controller.
func (NopController) OnMaterialized(*plan.Node, plan.Rows) error { return nil }

// WrapFunc intercepts operator construction: Build applies it to every
// operator it creates (outermost, above the tracing shim). The
// fault-injection harness uses it to wrap chosen operators with injected
// errors and stalls; a nil WrapFunc costs one pointer check per Build call.
type WrapFunc func(ctx *Ctx, op BatchOperator, n *plan.Node) BatchOperator

// Ctx carries the per-execution state shared by all operators.
type Ctx struct {
	DB         *storage.Database
	Q          *query.Query
	Controller Controller
	// Trace, when non-nil, collects per-operator runtime stats (rows,
	// batches, estimated vs actual cardinality, inclusive wall time) for
	// this execution attempt: Build wraps every operator in a timing shim.
	// A nil Trace leaves the operator tree untouched, so disabled tracing
	// costs nothing.
	Trace *obs.ExecTrace
	// Context, when non-nil, cancels execution cooperatively: every operator
	// inner loop charges work, and charge polls the context once per
	// cancelPollInterval units, unwinding with the context's error (deadline
	// or caller cancellation) mid-pipeline.
	Context context.Context
	// Wrap, when non-nil, is applied to every operator Build constructs.
	Wrap WrapFunc
	// Budget bounds the total work units (tuples scanned, probed, emitted);
	// zero means unlimited.
	Budget int64
	// MaxMatRows bounds the total tuples buffered by pipeline breakers
	// (hash-join builds, nested-loop materializations) across the whole
	// execution; exceeding it fails the query with a *ResourceError. Zero
	// means unlimited.
	MaxMatRows int64
	// Metrics, when non-nil, receives the zone-map scan counters
	// (storage.segments_total, storage.segments_skipped). Sequential scans
	// add to them once in Open, so a nil registry costs nothing on the
	// per-batch paths.
	Metrics  *obs.Registry
	work     int64
	matRows  int64
	nextPoll int64
	// layouts memoizes plan.NewLayout per table subset: every join node
	// resolves left/right/output layouts, and without the cache plan
	// construction recomputes the same layouts once per node per helper
	// (O(nodes × layout width)). A Ctx belongs to one execution of one
	// query on one goroutine, so no lock is needed.
	layouts map[query.BitSet]*plan.Layout
}

// Layout returns the memoized projected tuple layout for the subset mask of
// the context's query.
func (c *Ctx) Layout(mask query.BitSet) *plan.Layout {
	if l, ok := c.layouts[mask]; ok {
		return l
	}
	if c.layouts == nil {
		c.layouts = make(map[query.BitSet]*plan.Layout, 8)
	}
	l := plan.NewLayout(c.Q, mask)
	c.layouts[mask] = l
	return l
}

// charge consumes n work units, failing when the budget is exhausted or the
// context is cancelled.
func (c *Ctx) charge(n int64) error {
	c.work += n
	if c.Budget > 0 && c.work > c.Budget {
		return ErrBudget
	}
	if c.Context != nil && c.work >= c.nextPoll {
		c.nextPoll = c.work + cancelPollInterval
		if err := c.Context.Err(); err != nil {
			return err
		}
	}
	return nil
}

// chargeMatN accounts n materialized rows at once. When the lump would
// cross the limit it stops at the first exceeding row, so the counter and
// the *ResourceError payload name the row that crossed it whatever the
// batch boundaries.
func (c *Ctx) chargeMatN(n int64) error {
	if c.MaxMatRows > 0 && c.matRows+n > c.MaxMatRows {
		c.matRows = c.MaxMatRows + 1
		return &ResourceError{Resource: "materialized-rows", Limit: c.MaxMatRows, Used: c.matRows}
	}
	c.matRows += n
	return nil
}

// MatRows reports the total rows buffered by pipeline breakers so far.
func (c *Ctx) MatRows() int64 { return c.matRows }

// Work reports the consumed work units, a deterministic proxy for execution
// effort used by tests.
func (c *Ctx) Work() int64 { return c.work }

// checkpoint reports a completed materialization to the controller.
func checkpoint(ctx *Ctx, node *plan.Node, rows plan.Rows) error {
	if ctx.Controller == nil {
		return nil
	}
	return ctx.Controller.OnMaterialized(node, rows)
}

// matCost is the work charged per materialized tuple of node. It scales
// with the logical (unprojected) tuple width — not the bytes actually
// buffered — so budgets, checkpoints and the collected training set are
// independent of the projection, and the work budget still bounds buffered
// memory from above.
func matCost(ctx *Ctx, node *plan.Node) int64 {
	return 1 + int64(ctx.Layout(node.Tables).FullWidth())/4
}

// leafCols returns the column positions a scan of leaf n materializes: the
// live columns of its table, in tuple order. Predicates are evaluated on the
// stored columns before the gather, so predicate-only columns are not listed.
func leafCols(ctx *Ctx, n *plan.Node) []int {
	live := ctx.Layout(n.Tables).Live()
	cols := make([]int, len(live))
	for i, c := range live {
		cols[i] = c.Pos
	}
	return cols
}

// joinMerge precomputes how to stitch a left tuple and a right tuple into
// the projected output layout: one entry per output column, naming the child
// and the offset it is read from. Columns live in a child but dead above the
// join — typically the join's own keys — are simply not listed.
type joinMerge struct {
	cols []mergeCol
}

type mergeCol struct {
	fromLeft bool
	off      int
}

func newJoinMerge(ctx *Ctx, left, right query.BitSet) joinMerge {
	leftLayout, rightLayout := ctx.Layout(left), ctx.Layout(right)
	live := ctx.Layout(left.Union(right)).Live()
	m := joinMerge{cols: make([]mergeCol, len(live))}
	for i, c := range live {
		if left.Has(ctx.Q.TableIndex(c.Table)) {
			m.cols[i] = mergeCol{true, leftLayout.ColOffset(c)}
		} else {
			m.cols[i] = mergeCol{false, rightLayout.ColOffset(c)}
		}
	}
	return m
}

// width is the output tuple width.
func (m joinMerge) width() int { return len(m.cols) }

// mergeFlat stitches l and r into dst, which must already have the output
// width — typically a row pushed onto a batch arena.
func (m joinMerge) mergeFlat(dst, l, r []int64) {
	dst = dst[:len(m.cols)]
	for i, c := range m.cols {
		if c.fromLeft {
			dst[i] = l[c.off]
		} else {
			dst[i] = r[c.off]
		}
	}
}

// fillFlat writes the projection of l into the first row of dst and
// replicates it over the rest; dst holds a whole number of output rows, and
// every output column must be read from the left side. At width 1 it is a
// plain fill, and at width 0 there is nothing to write.
func (m joinMerge) fillFlat(dst, l []int64) {
	w := len(m.cols)
	if len(dst) == 0 {
		return
	}
	if w == 1 {
		v := l[m.cols[0].off]
		for i := range dst {
			dst[i] = v
		}
		return
	}
	for i, c := range m.cols {
		dst[i] = l[c.off]
	}
	// doubling copies: dst[:k] holds k/w copies of the row
	for k := w; k < len(dst); k *= 2 {
		copy(dst[k:], dst[:k])
	}
}

// condOffsets resolves a join condition's column offsets relative to the
// left and right child layouts, swapping sides if needed.
type condOffsets struct {
	leftOff, rightOff int
}

func resolveConds(ctx *Ctx, conds []query.Join, left, right query.BitSet) ([]condOffsets, error) {
	q := ctx.Q
	leftLayout := ctx.Layout(left)
	rightLayout := ctx.Layout(right)
	out := make([]condOffsets, len(conds))
	for i, c := range conds {
		li, ri := q.TableIndex(c.Left.Table), q.TableIndex(c.Right.Table)
		switch {
		case left.Has(li) && right.Has(ri):
			out[i] = condOffsets{leftLayout.ColOffset(c.Left), rightLayout.ColOffset(c.Right)}
		case left.Has(ri) && right.Has(li):
			out[i] = condOffsets{leftLayout.ColOffset(c.Right), rightLayout.ColOffset(c.Left)}
		default:
			return nil, fmt.Errorf("exec: join condition %v does not span children", c)
		}
	}
	return out, nil
}

// hashRowConds hashes a tuple's join-key columns in place: FNV-1a over the
// key values in condition order, one 64-bit word per value. For one
// condition the hash is (basis ^ v) * prime mod 2^64, a bijection on int64
// because the prime is odd (TestHashSingleKeyInjective inverts it), so
// equal hashes mean equal keys. With several conditions distinct keys can
// collide, and matches are verified value by value.
func hashRowConds(row []int64, conds []condOffsets, left bool) uint64 {
	h := fnvOffsetBasis
	for _, c := range conds {
		off := c.rightOff
		if left {
			off = c.leftOff
		}
		h = fnvStep(h, row[off])
	}
	return h
}

// FNV-1a's 64-bit offset basis and prime.
const (
	fnvOffsetBasis uint64 = 14695981039346656037
	fnvPrime       uint64 = 1099511628211
)

// fnvStep folds one key value into an FNV-1a hash.
func fnvStep(h uint64, v int64) uint64 {
	return (h ^ uint64(v)) * fnvPrime
}

// condsEqual reports whether a left and a right tuple agree on every join
// condition. Rows that share a single-condition hash always do (see
// hashRowConds), so the hash join calls it only on multi-condition keys.
func condsEqual(conds []condOffsets, l, r []int64) bool {
	for _, c := range conds {
		if l[c.leftOff] != r[c.rightOff] {
			return false
		}
	}
	return true
}
