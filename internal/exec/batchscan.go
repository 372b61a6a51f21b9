package exec

import (
	"fmt"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// batchSeqScan reads a base table in fixed chunks of physical rows,
// evaluates the leaf predicates column-at-a-time into a selection vector,
// and gathers the passing rows into the output arena. Work is charged per
// chunk (1 per physical row examined) — including chunks the zone maps skip,
// so work accounting is independent of pruning.
//
// When the table is sealed and the scan has predicates, filtering and
// gathering go through the encoded segment layer (zs): pruned segments are
// never decoded, surviving ones are filtered on their encoded form and
// late-materialized by selection vector (see newSegScanState for when the
// raw columns are read instead).
type batchSeqScan struct {
	node  *plan.Node
	table *storage.Table
	cols  []int         // live column positions, in tuple order
	zs    *segScanState // shared read-only with morsel replicas; nil = raw
	row   int
	end   int // one past the last physical row to scan (morsel bound)
	count int
	sel   []int32
	buf   []int64 // replica-private segment decode scratch
	out   Batch
}

func newBatchSeqScan(ctx *Ctx, n *plan.Node) *batchSeqScan {
	return &batchSeqScan{node: n, table: ctx.DB.Table(n.Table), cols: leafCols(ctx, n)}
}

func (s *batchSeqScan) Open(ctx *Ctx) error {
	s.row = 0
	s.end = s.table.NumRows()
	s.count = 0
	s.zs = newSegScanState(ctx, s.table, s.node.Preds, true)
	return nil
}

func (s *batchSeqScan) NextBatch(ctx *Ctx) (*Batch, error) {
	for s.row < s.end {
		lo := s.row
		hi := lo + BatchSize
		if hi > s.end {
			hi = s.end
		}
		s.row = hi
		if err := ctx.charge(int64(hi - lo)); err != nil {
			return nil, err
		}
		if s.zs != nil {
			s.sel, s.buf = s.zs.selectRange(s.sel[:0], s.buf, lo, hi, s.node.Preds)
		} else {
			s.sel = selectRange(s.sel[:0], s.table, lo, hi, s.node.Preds)
		}
		if len(s.sel) == 0 {
			continue
		}
		s.out.reset(len(s.cols))
		if s.zs != nil {
			s.zs.gather(&s.out, s.cols, s.sel)
		} else {
			gatherRows(&s.out, s.table, s.cols, s.sel)
		}
		s.count += len(s.sel)
		return &s.out, nil
	}
	s.node.TrueCard = float64(s.count)
	return nil, nil
}

func (s *batchSeqScan) Close() {}

// selectRange appends to sel the row ids in [lo, hi) that satisfy every
// predicate: the first predicate scans the range directly, the rest refine
// the selection vector in place.
func selectRange(sel []int32, t *storage.Table, lo, hi int, preds []query.Predicate) []int32 {
	if len(preds) == 0 {
		for r := lo; r < hi; r++ {
			sel = append(sel, int32(r))
		}
		return sel
	}
	sel = filterRange(sel, t.Cols[preds[0].Col.Pos], lo, hi, preds[0])
	for _, p := range preds[1:] {
		sel = filterSel(sel, t.Cols[p.Col.Pos], p)
	}
	return sel
}

// filterRange appends the ids in [lo, hi) whose column value satisfies p.
// The operator switch sits outside the row loop so each case is a tight
// branch-predictable compare loop; OpIn (set membership) falls back to the
// predicate's own evaluator.
func filterRange(sel []int32, col []int64, lo, hi int, p query.Predicate) []int32 {
	switch p.Op {
	case query.OpEQ:
		for r := lo; r < hi; r++ {
			if col[r] == p.Operand {
				sel = append(sel, int32(r))
			}
		}
	case query.OpNE:
		for r := lo; r < hi; r++ {
			if col[r] != p.Operand {
				sel = append(sel, int32(r))
			}
		}
	case query.OpLT:
		for r := lo; r < hi; r++ {
			if col[r] < p.Operand {
				sel = append(sel, int32(r))
			}
		}
	case query.OpLE:
		for r := lo; r < hi; r++ {
			if col[r] <= p.Operand {
				sel = append(sel, int32(r))
			}
		}
	case query.OpGT:
		for r := lo; r < hi; r++ {
			if col[r] > p.Operand {
				sel = append(sel, int32(r))
			}
		}
	case query.OpGE:
		for r := lo; r < hi; r++ {
			if col[r] >= p.Operand {
				sel = append(sel, int32(r))
			}
		}
	default:
		for r := lo; r < hi; r++ {
			if p.Eval(col[r]) {
				sel = append(sel, int32(r))
			}
		}
	}
	return sel
}

// filterSel compacts sel in place, keeping the ids whose column value
// satisfies p.
func filterSel(sel []int32, col []int64, p query.Predicate) []int32 {
	out := sel[:0]
	switch p.Op {
	case query.OpEQ:
		for _, r := range sel {
			if col[r] == p.Operand {
				out = append(out, r)
			}
		}
	case query.OpNE:
		for _, r := range sel {
			if col[r] != p.Operand {
				out = append(out, r)
			}
		}
	case query.OpLT:
		for _, r := range sel {
			if col[r] < p.Operand {
				out = append(out, r)
			}
		}
	case query.OpLE:
		for _, r := range sel {
			if col[r] <= p.Operand {
				out = append(out, r)
			}
		}
	case query.OpGT:
		for _, r := range sel {
			if col[r] > p.Operand {
				out = append(out, r)
			}
		}
	case query.OpGE:
		for _, r := range sel {
			if col[r] >= p.Operand {
				out = append(out, r)
			}
		}
	default:
		for _, r := range sel {
			if p.Eval(col[r]) {
				out = append(out, r)
			}
		}
	}
	return out
}

// gatherRows copies the given columns of the selected rows of a column-major
// table into the batch arena (whose width is len(cols)), column by column so
// each source column is read sequentially. With no live column it only
// counts.
func gatherRows(b *Batch, t *storage.Table, cols []int, sel []int32) {
	w := b.width
	for k, c := range cols {
		col := t.Cols[c]
		d := b.data[k:]
		for i, r := range sel {
			d[i*w] = col[r]
		}
	}
	b.n = len(sel)
}

// batchIndexScan drives the scan from the IndexPred column's index (a
// 16-unit descent charge, then 1 per rid examined) and applies the remaining
// predicates per chunk of rids. With the segment layer available, a rid
// landing in a segment where some residual
// predicate is zone-map-disproven is dropped before any column is read,
// and the survivors are filtered and gathered through the encoded form.
type batchIndexScan struct {
	node  *plan.Node
	table *storage.Table
	cols  []int         // live column positions, in tuple order
	zs    *segScanState // shared read-only with morsel replicas; nil = raw
	rids  []int32
	rest  []query.Predicate
	pos   int
	end   int // one past the last rid position to scan (morsel bound)
	count int
	sel   []int32
	out   Batch
}

func newBatchIndexScan(ctx *Ctx, n *plan.Node) (*batchIndexScan, error) {
	if n.IndexPred == nil {
		return nil, errNoIndexPred(n)
	}
	return &batchIndexScan{node: n, table: ctx.DB.Table(n.Table), cols: leafCols(ctx, n)}, nil
}

func (s *batchIndexScan) Open(ctx *Ctx) error {
	s.pos = 0
	s.count = 0
	s.rest = s.rest[:0]
	for i := range s.node.Preds {
		if &s.node.Preds[i] != s.node.IndexPred {
			s.rest = append(s.rest, s.node.Preds[i])
		}
	}
	if err := ctx.charge(16); err != nil {
		return err
	}
	rids, err := resolveIndexRids(s.table, *s.node.IndexPred, s.rids)
	if err != nil {
		return err
	}
	s.rids = rids
	s.end = len(rids)
	s.zs = newSegScanState(ctx, s.table, s.rest, false)
	return nil
}

func (s *batchIndexScan) NextBatch(ctx *Ctx) (*Batch, error) {
	for s.pos < s.end {
		lo := s.pos
		hi := lo + BatchSize
		if hi > s.end {
			hi = s.end
		}
		s.pos = hi
		if err := ctx.charge(int64(hi - lo)); err != nil {
			return nil, err
		}
		s.sel = append(s.sel[:0], s.rids[lo:hi]...)
		if s.zs != nil {
			s.sel = s.zs.pruneSel(s.sel)
			for _, p := range s.rest {
				s.sel = s.zs.filterSel(s.sel, p)
			}
		} else {
			for _, p := range s.rest {
				s.sel = filterSel(s.sel, s.table.Cols[p.Col.Pos], p)
			}
		}
		if len(s.sel) == 0 {
			continue
		}
		s.out.reset(len(s.cols))
		if s.zs != nil {
			s.zs.gather(&s.out, s.cols, s.sel)
		} else {
			gatherRows(&s.out, s.table, s.cols, s.sel)
		}
		s.count += len(s.sel)
		return &s.out, nil
	}
	s.node.TrueCard = float64(s.count)
	return nil, nil
}

func (s *batchIndexScan) Close() {}

// batchMatScan replays a materialized intermediate result in chunks,
// charging 1 per emitted row. Rows are copied into the arena because
// Mat.Rows may be retained by the controller.
type batchMatScan struct {
	node  *plan.Node
	width int
	pos   int
	end   int // one past the last materialized row to replay (morsel bound)
	out   Batch
}

func newBatchMatScan(ctx *Ctx, n *plan.Node) *batchMatScan {
	return &batchMatScan{node: n, width: ctx.Layout(n.Tables).Width()}
}

func (s *batchMatScan) Open(ctx *Ctx) error {
	s.pos = 0
	s.end = len(s.node.Mat.Rows)
	return checkMatLayout(ctx, s.node)
}

func (s *batchMatScan) NextBatch(ctx *Ctx) (*Batch, error) {
	rows := s.node.Mat.Rows
	if s.pos >= s.end {
		s.node.TrueCard = float64(len(rows))
		return nil, nil
	}
	lo := s.pos
	hi := lo + BatchSize
	if hi > s.end {
		hi = s.end
	}
	s.pos = hi
	if err := ctx.charge(int64(hi - lo)); err != nil {
		return nil, err
	}
	s.out.reset(s.width)
	for _, row := range rows[lo:hi] {
		copy(s.out.pushRow(), row)
	}
	return &s.out, nil
}

func (s *batchMatScan) Close() {}

// fetchRow copies the given column positions of physical row r into dst.
func fetchRow(dst Tuple, t *storage.Table, cols []int, r int) {
	for k, c := range cols {
		dst[k] = t.Cols[c][r]
	}
}

// rowMatches evaluates all predicates on one physical row.
func rowMatches(t *storage.Table, row int, preds []query.Predicate) bool {
	for _, p := range preds {
		if !p.Eval(t.Cols[p.Col.Pos][row]) {
			return false
		}
	}
	return true
}

func errNoIndexPred(n *plan.Node) error {
	return fmt.Errorf("exec: IndexScan on %s without an index predicate", n.Table.Name)
}

// resolveIndexRids resolves the row ids matching an index predicate. The
// prev slice is reused for the OpIn gather; the other cases return
// index-owned slices which callers must treat as read-only.
func resolveIndexRids(t *storage.Table, p query.Predicate, prev []int32) ([]int32, error) {
	switch p.Op {
	case query.OpEQ:
		return t.HashIndex(p.Col.Pos).Lookup(p.Operand), nil
	case query.OpIn:
		ix := t.HashIndex(p.Col.Pos)
		rids := prev[:0]
		for _, v := range p.InSet {
			rids = append(rids, ix.Lookup(v)...)
		}
		return rids, nil
	case query.OpLT:
		return t.OrderedIndex(p.Col.Pos).Range(minInt64, p.Operand-1), nil
	case query.OpLE:
		return t.OrderedIndex(p.Col.Pos).Range(minInt64, p.Operand), nil
	case query.OpGT:
		return t.OrderedIndex(p.Col.Pos).Range(p.Operand+1, maxInt64), nil
	case query.OpGE:
		return t.OrderedIndex(p.Col.Pos).Range(p.Operand, maxInt64), nil
	default:
		return nil, fmt.Errorf("exec: operator %v cannot drive an index scan", p.Op)
	}
}

const (
	minInt64 = int64(-1 << 63)
	maxInt64 = int64(1<<63 - 1)
)

// checkMatLayout rejects a materialized intermediate whose rows are not in
// the projected layout of its subset — rows buffered for another query, or
// by code that predates the projection, would otherwise be read at the wrong
// offsets. Rows of one intermediate share a producer, so the first suffices.
func checkMatLayout(ctx *Ctx, n *plan.Node) error {
	w := ctx.Layout(n.Tables).Width()
	if rows := n.Mat.Rows; len(rows) > 0 && len(rows[0]) != w {
		return fmt.Errorf("exec: materialized rows of subset %b have width %d, layout width %d",
			uint32(n.Tables), len(rows[0]), w)
	}
	return nil
}
