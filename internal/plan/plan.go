// Package plan defines physical execution plans: binary join trees whose
// leaves scan base tables (or, after a re-optimization, materialized
// intermediate results) and whose internal nodes are hash or nested loop
// joins. Plans carry the optimizer's cardinality and cost annotations
// and, after instrumented execution, the true cardinalities used to train
// the learned estimators.
package plan

import (
	"cmp"
	"fmt"
	"slices"
	"strings"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/query"
)

// PhysOp identifies the physical operator of a plan node.
type PhysOp int

// Physical operators: two scan methods, the materialized-intermediate scan
// and two join methods. PostgreSQL's merge join has none (see package exec
// for why).
const (
	SeqScan PhysOp = iota
	IndexScan
	MatScan // scan of a materialized intermediate (re-optimization resume)
	HashJoin
	NestLoopJoin
)

func (op PhysOp) String() string {
	switch op {
	case SeqScan:
		return "SeqScan"
	case IndexScan:
		return "IndexScan"
	case MatScan:
		return "MatScan"
	case HashJoin:
		return "HashJoin"
	case NestLoopJoin:
		return "NestLoopJoin"
	default:
		return fmt.Sprintf("PhysOp(%d)", int(op))
	}
}

// IsJoin reports whether the operator is one of the two join methods.
func (op PhysOp) IsJoin() bool { return op >= HashJoin }

// Rows is a flat row-major set of N tuples, each Width values wide: tuple i
// is Data[i*Width : (i+1)*Width]. One arena and no per-row slice header, so
// a buffered intermediate costs its values and nothing more. A zero-width set
// (a COUNT(*) root's tuples hold no column) carries only N.
type Rows struct {
	Width, N int
	Data     []int64
}

// Row returns a view of tuple i. The full-slice expression pins the
// capacity so an append through the view cannot clobber the next tuple.
func (r Rows) Row(i int) []int64 {
	off := i * r.Width
	return r.Data[off : off+r.Width : off+r.Width]
}

// Materialized holds the buffered output of an executed sub-plan, keyed by
// the table subset it covers. Re-optimized plans scan these instead of
// recomputing the executed work (paper §6.2). Rows are in the projected
// layout of Tables (see Layout), which is the same for every plan of the
// query, in the order the executor drained them.
type Materialized struct {
	Tables query.BitSet
	Rows   Rows
}

// Card returns the exact cardinality of the materialized result.
func (m *Materialized) Card() int { return m.Rows.N }

// Node is one operator of a physical plan.
type Node struct {
	Op PhysOp

	// Leaf fields (SeqScan / IndexScan / MatScan).
	Table     *catalog.Table
	Preds     []query.Predicate
	IndexPred *query.Predicate // the predicate driving an IndexScan
	Mat       *Materialized

	// Join fields.
	Left, Right *Node
	JoinConds   []query.Join

	// Tables is the subset of the query's relations this node covers.
	Tables query.BitSet

	// Optimizer annotations.
	EstCard float64
	EstCost float64

	// TrueCard is filled by instrumented execution (counters at every
	// operator, the paper's EXPLAIN ANALYZE analogue); -1 when unknown.
	TrueCard float64
}

// NewLeaf builds a scan leaf covering the single table at local index idx.
func NewLeaf(op PhysOp, t *catalog.Table, idx int, preds []query.Predicate) *Node {
	return &Node{Op: op, Table: t, Preds: preds, Tables: query.NewBitSet().Set(idx), TrueCard: -1}
}

// NewMatLeaf builds a leaf scanning a materialized intermediate.
func NewMatLeaf(m *Materialized) *Node {
	return &Node{Op: MatScan, Mat: m, Tables: m.Tables, EstCard: float64(m.Card()), TrueCard: float64(m.Card())}
}

// NewJoin builds a join node over two children.
func NewJoin(op PhysOp, left, right *Node, conds []query.Join) *Node {
	return &Node{
		Op: op, Left: left, Right: right, JoinConds: conds,
		Tables: left.Tables.Union(right.Tables), TrueCard: -1,
	}
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Left == nil && n.Right == nil }

// Walk visits the subtree in post-order (left, right, node), the order in
// which a bottom-up executor completes operators; LPCE-R's "first k
// executed operators" prefixes follow this order.
func (n *Node) Walk(visit func(*Node)) {
	if n == nil {
		return
	}
	n.Left.Walk(visit)
	n.Right.Walk(visit)
	visit(n)
}

// Nodes returns the subtree's nodes in post-order.
func (n *Node) Nodes() []*Node {
	var out []*Node
	n.Walk(func(x *Node) { out = append(out, x) })
	return out
}

// NumNodes returns the operator count of the subtree.
func (n *Node) NumNodes() int {
	c := 0
	n.Walk(func(*Node) { c++ })
	return c
}

// Depth returns the height of the subtree (a single leaf has depth 1).
func (n *Node) Depth() int {
	if n == nil {
		return 0
	}
	l, r := n.Left.Depth(), n.Right.Depth()
	if r > l {
		l = r
	}
	return l + 1
}

// Clone deep-copies the plan tree. Materialized payloads are shared, not
// copied.
func (n *Node) Clone() *Node {
	if n == nil {
		return nil
	}
	cp := *n
	cp.Left = n.Left.Clone()
	cp.Right = n.Right.Clone()
	cp.Preds = append([]query.Predicate(nil), n.Preds...)
	cp.JoinConds = append([]query.Join(nil), n.JoinConds...)
	// remap IndexPred into the cloned Preds slice: the executor identifies
	// the index-driving predicate by pointer, so a clone pointing into the
	// original's slice would silently re-apply it as a residual filter
	if n.IndexPred != nil {
		for i := range n.Preds {
			if &n.Preds[i] == n.IndexPred {
				cp.IndexPred = &cp.Preds[i]
				break
			}
		}
	}
	return &cp
}

// String renders the plan as an indented tree for logs and examples.
func (n *Node) String() string {
	return n.StringWith(nil)
}

// StringWith renders the plan like String, appending annot's output (when
// non-nil) to each operator line — the hook EXPLAIN ANALYZE uses to attach
// per-operator runtime stats without the plan package knowing about them.
func (n *Node) StringWith(annot func(*Node) string) string {
	var b strings.Builder
	n.render(&b, 0, annot)
	return b.String()
}

func (n *Node) render(b *strings.Builder, depth int, annot func(*Node) string) {
	indent := strings.Repeat("  ", depth)
	switch {
	case n.Op.IsJoin():
		fmt.Fprintf(b, "%s%s", indent, n.Op)
		for _, j := range n.JoinConds {
			fmt.Fprintf(b, " [%s]", j)
		}
	case n.Op == MatScan:
		fmt.Fprintf(b, "%sMatScan(subset=%b, rows=%d)", indent, uint32(n.Mat.Tables), n.Mat.Card())
	default:
		fmt.Fprintf(b, "%s%s(%s", indent, n.Op, n.Table.Name)
		for _, p := range n.Preds {
			fmt.Fprintf(b, " %s", p)
		}
		b.WriteString(")")
	}
	fmt.Fprintf(b, " est=%.0f", n.EstCard)
	if n.TrueCard >= 0 {
		fmt.Fprintf(b, " true=%.0f", n.TrueCard)
	}
	if annot != nil {
		b.WriteString(annot(n))
	}
	b.WriteString("\n")
	if n.Left != nil {
		n.Left.render(b, depth+1, annot)
	}
	if n.Right != nil {
		n.Right.render(b, depth+1, annot)
	}
}

// Layout is the projected tuple layout of a node covering a table subset S
// of query q. A column of a table in S is live iff some join condition of q
// has it on one side and a table outside S on the other: those are the only
// values an operator above the node can read. Tuples over S hold exactly the
// live columns, ordered by local table index and then column position, so
// the full mask has width 0 and a COUNT(*) root counts rows without writing
// any. The rule depends only on (q, S) — never on the plan that produced the
// tuples — so an intermediate materialized under one plan can be scanned by
// any re-optimized plan over the same subset.
type Layout struct {
	mask      query.BitSet
	live      []*catalog.Column // tuple offset -> column
	fullWidth int
}

// NewLayout computes the projected tuple layout for the subset mask of
// query q.
func NewLayout(q *query.Query, mask query.BitSet) *Layout {
	l := &Layout{mask: mask}
	for i, t := range q.Tables {
		if mask.Has(i) {
			l.fullWidth += len(t.Columns)
		}
	}
	for i, j := range q.Joins {
		ls, rs := q.JoinSides(i)
		inL, inR := mask&ls != 0, mask&rs != 0
		switch {
		case inL && !inR:
			l.live = append(l.live, j.Left)
		case inR && !inL:
			l.live = append(l.live, j.Right)
		}
	}
	// Local table indices ascend with catalog IDs (query.New sorts by ID), so
	// (table ID, column position) order is tuple order; a column named by
	// several conditions (a star's hub key) is kept once.
	slices.SortFunc(l.live, func(a, b *catalog.Column) int {
		return cmp.Or(cmp.Compare(a.Table.ID, b.Table.ID), cmp.Compare(a.Pos, b.Pos))
	})
	l.live = slices.Compact(l.live)
	return l
}

// Width returns the physical tuple width: the number of live columns.
func (l *Layout) Width() int { return len(l.live) }

// FullWidth returns the unprojected width — every column of every covered
// table. Nothing is stored at this width; the executor charges
// materialization work by it so work accounting (budgets, checkpoints, the
// collected training set) does not depend on the projection.
func (l *Layout) FullWidth() int { return l.fullWidth }

// Live returns the live columns in tuple order. Callers must not modify it.
func (l *Layout) Live() []*catalog.Column { return l.live }

// ColOffset returns the tuple offset of column c. It panics when c is not
// live in this layout: reading a projected-away column is a planner bug and
// must fail loudly rather than return a neighbouring column's value.
func (l *Layout) ColOffset(c *catalog.Column) int {
	for i, x := range l.live {
		if x == c {
			return i
		}
	}
	panic(fmt.Sprintf("plan: column %s is not live in the layout of subset %b", c.QualifiedName(), uint32(l.mask)))
}
