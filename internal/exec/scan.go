package exec

import (
	"fmt"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// seqScan reads a base table row by row, applying the leaf's predicates and
// materializing only the leaf's live columns.
type seqScan struct {
	node  *plan.Node
	table *storage.Table
	cols  []int // live column positions, in tuple order
	row   int
	buf   Tuple
	count int
}

func newSeqScan(ctx *Ctx, n *plan.Node) *seqScan {
	return &seqScan{node: n, table: ctx.DB.Table(n.Table), cols: leafCols(ctx, n)}
}

func (s *seqScan) Open(*Ctx) error {
	s.row = 0
	s.count = 0
	s.buf = make(Tuple, len(s.cols))
	return nil
}

func (s *seqScan) Next(ctx *Ctx) (Tuple, bool, error) {
	n := s.table.NumRows()
	for s.row < n {
		r := s.row
		s.row++
		if err := ctx.charge(1); err != nil {
			return nil, false, err
		}
		if !rowMatches(s.table, r, s.node.Preds) {
			continue
		}
		fetchRow(s.buf, s.table, s.cols, r)
		s.count++
		return s.buf, true, nil
	}
	s.node.TrueCard = float64(s.count)
	return nil, false, nil
}

func (s *seqScan) Close() {}

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

// indexScan drives the scan from an ordered (range/equality) index on the
// IndexPred column and applies the remaining predicates to each match.
type indexScan struct {
	node    *plan.Node
	table   *storage.Table
	cols    []int // live column positions, in tuple order
	rids    []int32
	rest    []query.Predicate
	pos     int
	buf     Tuple
	count   int
	inLists [][]int32 // pre-resolved rid lists for IN predicates
}

func newIndexScan(ctx *Ctx, n *plan.Node) (*indexScan, error) {
	if n.IndexPred == nil {
		return nil, errNoIndexPred(n)
	}
	return &indexScan{node: n, table: ctx.DB.Table(n.Table), cols: leafCols(ctx, n)}, nil
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

func (s *indexScan) Open(ctx *Ctx) error {
	s.pos = 0
	s.count = 0
	s.buf = make(Tuple, len(s.cols))
	s.rest = s.rest[:0]
	for i := range s.node.Preds {
		if &s.node.Preds[i] != s.node.IndexPred {
			s.rest = append(s.rest, s.node.Preds[i])
		}
	}
	// charge the index descent
	if err := ctx.charge(16); err != nil {
		return err
	}
	rids, err := resolveIndexRids(s.table, *s.node.IndexPred, s.rids)
	if err != nil {
		return err
	}
	s.rids = rids
	return nil
}

const (
	minInt64 = int64(-1 << 63)
	maxInt64 = int64(1<<63 - 1)
)

func (s *indexScan) Next(ctx *Ctx) (Tuple, bool, error) {
	for s.pos < len(s.rids) {
		r := int(s.rids[s.pos])
		s.pos++
		if err := ctx.charge(1); err != nil {
			return nil, false, err
		}
		if !rowMatches(s.table, r, s.rest) {
			continue
		}
		fetchRow(s.buf, s.table, s.cols, r)
		s.count++
		return s.buf, true, nil
	}
	s.node.TrueCard = float64(s.count)
	return nil, false, nil
}

func (s *indexScan) Close() {}

// matScan replays a materialized intermediate result (re-optimization
// resume path).
type matScan struct {
	node *plan.Node
	pos  int
}

func newMatScan(n *plan.Node) *matScan { return &matScan{node: n} }

func (s *matScan) Open(ctx *Ctx) error {
	s.pos = 0
	return checkMatLayout(ctx, s.node)
}

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

func (s *matScan) Next(ctx *Ctx) (Tuple, bool, error) {
	rows := s.node.Mat.Rows
	if s.pos >= len(rows) {
		s.node.TrueCard = float64(len(rows))
		return nil, false, nil
	}
	if err := ctx.charge(1); err != nil {
		return nil, false, err
	}
	t := rows[s.pos]
	s.pos++
	return t, true, nil
}

func (s *matScan) Close() {}
