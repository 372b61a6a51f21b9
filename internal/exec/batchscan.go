package exec

import (
	"fmt"
	"slices"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// batchSeqScan reads a base table in fixed chunks of physical rows,
// evaluates the leaf predicates column-at-a-time into a selection vector,
// and gathers the passing rows into the output arena. Work is charged per
// chunk (1 per physical row examined) — including chunks the zone maps skip,
// so work accounting is independent of pruning. The rows of segments the
// zone maps prune (zs, see newSegScanState) are never read.
type batchSeqScan struct {
	node   *plan.Node
	table  *storage.Table
	cols   []int         // live column positions, in tuple order
	zs     *segScanState // nil = nothing pruned
	row    int
	end    int // the table's row count at Open
	count  int
	sel    []int32
	selBox *[]int32 // pooled backing of sel, BatchSize long
	out    Batch
}

func newBatchSeqScan(ctx *Ctx, n *plan.Node) *batchSeqScan {
	return &batchSeqScan{node: n, table: ctx.DB.Table(n.Table), cols: leafCols(ctx, n)}
}

func (s *batchSeqScan) Open(ctx *Ctx) error {
	s.row = 0
	s.end = s.table.NumRows()
	s.count = 0
	s.zs = newSegScanState(ctx, s.table, s.node.Preds, true)
	if s.selBox == nil {
		s.selBox = int32Pool.get(BatchSize)
		s.sel = *s.selBox
	}
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
		s.sel = selectRange(s.sel[:0], s.table, s.zs, lo, hi, s.node.Preds)
		if len(s.sel) == 0 {
			continue
		}
		s.out.reset(len(s.cols))
		gatherRows(&s.out, s.table, s.cols, s.sel)
		s.count += len(s.sel)
		return &s.out, nil
	}
	s.node.TrueCard = float64(s.count)
	return nil, nil
}

func (s *batchSeqScan) Close() {
	int32Pool.put(s.selBox)
	s.sel, s.selBox = nil, nil
	s.out.release()
}

// selectRange appends to sel the row ids in [lo, hi) that satisfy every
// predicate, skipping the rows of segments zs prunes: the first predicate
// scans each surviving run directly, the rest refine the selection vector
// in place.
func selectRange(sel []int32, t *storage.Table, zs *segScanState, lo, hi int, preds []query.Predicate) []int32 {
	if len(preds) == 0 {
		for r := lo; r < hi; r++ {
			sel = append(sel, int32(r))
		}
		return sel
	}
	col0 := t.Cols[preds[0].Col.Pos]
	for lo < hi {
		end, live := zs.run(lo, hi)
		if live {
			sel = filterRange(sel, col0, lo, end, preds[0])
		}
		lo = end
	}
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
// predicates per chunk of rids. A rid landing in a segment where some
// residual predicate is zone-map-disproven is dropped before any column is
// read.
type batchIndexScan struct {
	node   *plan.Node
	table  *storage.Table
	cols   []int         // live column positions, in tuple order
	zs     *segScanState // nil = nothing pruned
	rids   []int32
	rest   []query.Predicate
	pos    int
	count  int
	sel    []int32
	selBox *[]int32 // pooled backing of sel, BatchSize long
	out    Batch
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
	s.zs = newSegScanState(ctx, s.table, s.rest, false)
	if s.selBox == nil {
		s.selBox = int32Pool.get(BatchSize)
		s.sel = *s.selBox
	}
	return nil
}

func (s *batchIndexScan) NextBatch(ctx *Ctx) (*Batch, error) {
	for s.pos < len(s.rids) {
		lo := s.pos
		hi := min(lo+BatchSize, len(s.rids))
		s.pos = hi
		if err := ctx.charge(int64(hi - lo)); err != nil {
			return nil, err
		}
		s.sel = s.zs.pruneSel(append(s.sel[:0], s.rids[lo:hi]...))
		for _, p := range s.rest {
			s.sel = filterSel(s.sel, s.table.Cols[p.Col.Pos], p)
		}
		if len(s.sel) == 0 {
			continue
		}
		s.out.reset(len(s.cols))
		gatherRows(&s.out, s.table, s.cols, s.sel)
		s.count += len(s.sel)
		return &s.out, nil
	}
	s.node.TrueCard = float64(s.count)
	return nil, nil
}

func (s *batchIndexScan) Close() {
	int32Pool.put(s.selBox)
	s.sel, s.selBox = nil, nil
	s.out.release()
}

// batchMatScan replays a materialized intermediate result in chunks,
// charging 1 per emitted row. Each chunk is one copy into the batch arena:
// the batch is the operator's to reuse, while Mat.Rows may be retained by
// the controller.
type batchMatScan struct {
	node  *plan.Node
	width int
	pos   int
	out   Batch
}

func newBatchMatScan(ctx *Ctx, n *plan.Node) *batchMatScan {
	return &batchMatScan{node: n, width: ctx.Layout(n.Tables).Width()}
}

func (s *batchMatScan) Open(ctx *Ctx) error {
	s.pos = 0
	return checkMatLayout(ctx, s.node)
}

func (s *batchMatScan) NextBatch(ctx *Ctx) (*Batch, error) {
	rows := s.node.Mat.Rows
	if s.pos >= rows.N {
		s.node.TrueCard = float64(rows.N)
		return nil, nil
	}
	lo := s.pos
	hi := min(lo+BatchSize, rows.N)
	s.pos = hi
	if err := ctx.charge(int64(hi - lo)); err != nil {
		return nil, err
	}
	s.out.reset(s.width)
	copy(s.out.data, rows.Data[lo*s.width:hi*s.width])
	s.out.n = hi - lo
	return &s.out, nil
}

func (s *batchMatScan) Close() { s.out.release() }

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
// prev slice is reused for the OpIn gather, which looks up each distinct
// listed value once, in first-occurrence order; the other cases return
// index-owned slices which callers must treat as read-only. The strict
// bounds `< MinInt64` and `> MaxInt64` match no value.
func resolveIndexRids(t *storage.Table, p query.Predicate, prev []int32) ([]int32, error) {
	switch p.Op {
	case query.OpEQ:
		return t.OrderedIndex(p.Col.Pos).Range(p.Operand, p.Operand), nil
	case query.OpIn:
		ix := t.OrderedIndex(p.Col.Pos)
		rids := prev[:0]
		for i, v := range p.InSet {
			if !slices.Contains(p.InSet[:i], v) {
				rids = append(rids, ix.Range(v, v)...)
			}
		}
		return rids, nil
	case query.OpLT:
		if p.Operand == minInt64 {
			return nil, nil
		}
		return t.OrderedIndex(p.Col.Pos).Range(minInt64, p.Operand-1), nil
	case query.OpLE:
		return t.OrderedIndex(p.Col.Pos).Range(minInt64, p.Operand), nil
	case query.OpGT:
		if p.Operand == maxInt64 {
			return nil, nil
		}
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
// offsets. A row set has one width, so comparing it is exact.
func checkMatLayout(ctx *Ctx, n *plan.Node) error {
	if w, got := ctx.Layout(n.Tables).Width(), n.Mat.Rows.Width; got != w {
		return fmt.Errorf("exec: materialized rows of subset %b have width %d, layout width %d",
			uint32(n.Tables), got, w)
	}
	return nil
}
