package plan

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/query"
)

func fixture() (*catalog.Schema, *query.Query) {
	s := catalog.NewSchema()
	a := s.AddTable("a", catalog.PK("id"), catalog.Attr("x"))
	b := s.AddTable("b", catalog.FK("a_id", a.Column("id")), catalog.Attr("y"))
	c := s.AddTable("c", catalog.FK("b_y", b.Column("y")))
	q := query.New(
		[]*catalog.Table{a, b, c},
		[]query.Join{
			{Left: b.Column("a_id"), Right: a.Column("id")},
			{Left: c.Column("b_y"), Right: b.Column("y")},
		},
		[]query.Predicate{{Col: a.Column("x"), Op: query.OpLT, Operand: 3}},
	)
	return s, q
}

func buildTree(q *query.Query) *Node {
	la := NewLeaf(SeqScan, q.Tables[0], 0, q.PredsOn(q.Tables[0]))
	lb := NewLeaf(IndexScan, q.Tables[1], 1, nil)
	lc := NewLeaf(SeqScan, q.Tables[2], 2, nil)
	ab := NewJoin(HashJoin, la, lb, q.Joins[:1])
	return NewJoin(NestLoopJoin, ab, lc, q.Joins[1:])
}

func TestTreeShape(t *testing.T) {
	_, q := fixture()
	root := buildTree(q)
	if root.NumNodes() != 5 {
		t.Fatalf("nodes = %d", root.NumNodes())
	}
	if root.Depth() != 3 {
		t.Fatalf("depth = %d", root.Depth())
	}
	if !root.Tables.Has(0) || !root.Tables.Has(1) || !root.Tables.Has(2) {
		t.Fatalf("root covers %b", uint32(root.Tables))
	}
	if root.IsLeaf() || !root.Left.Left.IsLeaf() {
		t.Fatal("IsLeaf broken")
	}
}

func TestWalkPostOrder(t *testing.T) {
	_, q := fixture()
	root := buildTree(q)
	var ops []PhysOp
	root.Walk(func(n *Node) { ops = append(ops, n.Op) })
	want := []PhysOp{SeqScan, IndexScan, HashJoin, SeqScan, NestLoopJoin}
	if len(ops) != len(want) {
		t.Fatalf("ops = %v", ops)
	}
	for i := range want {
		if ops[i] != want[i] {
			t.Fatalf("post-order ops = %v, want %v", ops, want)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	_, q := fixture()
	root := buildTree(q)
	cp := root.Clone()
	cp.EstCard = 42
	cp.Left.Preds = nil
	if root.EstCard == 42 {
		t.Fatal("clone shares annotations")
	}
	if root.Left.Left.Preds == nil && len(q.Preds) > 0 {
		t.Fatal("clone damaged original predicates")
	}
	if cp.NumNodes() != root.NumNodes() {
		t.Fatal("clone changed shape")
	}
}

func TestCloneRemapsIndexPred(t *testing.T) {
	_, q := fixture()
	a := q.Tables[0]
	preds := []query.Predicate{
		{Col: a.Column("id"), Op: query.OpGE, Operand: 0},
		{Col: a.Column("x"), Op: query.OpEQ, Operand: 1},
	}
	n := NewLeaf(IndexScan, a, 0, preds)
	n.IndexPred = &n.Preds[1]
	cp := n.Clone()
	if cp.IndexPred == n.IndexPred {
		t.Fatal("clone's IndexPred aliases the original's Preds slice")
	}
	if cp.IndexPred != &cp.Preds[1] {
		t.Fatal("clone's IndexPred not remapped into its own Preds slice")
	}
}

func TestStringRendering(t *testing.T) {
	_, q := fixture()
	root := buildTree(q)
	root.EstCard = 100
	s := root.String()
	for _, frag := range []string{"NestLoopJoin", "HashJoin", "SeqScan(a", "IndexScan(b", "est=100"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("rendering missing %q:\n%s", frag, s)
		}
	}
}

func TestMatLeaf(t *testing.T) {
	m := &Materialized{Tables: query.NewBitSet().Set(0).Set(1), Rows: Rows{Width: 2, N: 2, Data: []int64{1, 2, 3, 4}}}
	n := NewMatLeaf(m)
	if n.Op != MatScan || n.EstCard != 2 || n.TrueCard != 2 {
		t.Fatalf("mat leaf = %+v", n)
	}
	if m.Card() != 2 {
		t.Fatalf("card = %d", m.Card())
	}
	if r := m.Rows.Row(1); len(r) != 2 || cap(r) != 2 || r[0] != 3 || r[1] != 4 {
		t.Fatalf("row 1 = %v (cap %d), want [3 4] with pinned capacity", r, cap(r))
	}
}

func TestLayoutProjection(t *testing.T) {
	_, q := fixture()
	a, b, c := q.Tables[0], q.Tables[1], q.Tables[2]
	// the root reads nothing: every join condition is inside the mask
	full := NewLayout(q, q.AllTablesMask())
	if full.Width() != 0 || full.FullWidth() != 5 {
		t.Fatalf("full mask width=%d fullWidth=%d, want 0 and 5", full.Width(), full.FullWidth())
	}
	// {a,b}: only b.y is still read above (by c.b_y = b.y); the a-b keys died
	ab := NewLayout(q, query.NewBitSet().Set(0).Set(1))
	if ab.Width() != 1 || ab.FullWidth() != 4 || ab.ColOffset(b.Column("y")) != 0 {
		t.Fatalf("{a,b} live = %v", ab.Live())
	}
	// {b}: both columns join outward, in column order
	lb := NewLayout(q, query.NewBitSet().Set(1))
	if lb.Width() != 2 || lb.ColOffset(b.Column("a_id")) != 0 || lb.ColOffset(b.Column("y")) != 1 {
		t.Fatalf("{b} live = %v", lb.Live())
	}
	// {a,c}: a.id then c.b_y, ascending table index; a.x is predicate-only
	ac := NewLayout(q, query.NewBitSet().Set(0).Set(2))
	if ac.Width() != 2 || ac.ColOffset(a.Column("id")) != 0 || ac.ColOffset(c.Column("b_y")) != 1 {
		t.Fatalf("{a,c} live = %v", ac.Live())
	}
}

func TestLayoutPanicsOnDeadColumn(t *testing.T) {
	_, q := fixture()
	l := NewLayout(q, query.NewBitSet().Set(0).Set(1))
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "b.a_id") || !strings.Contains(msg, "11") {
			t.Fatalf("dead-column panic = %q, want the qualified name and the mask", msg)
		}
	}()
	l.ColOffset(q.Tables[1].Column("a_id"))
}

func TestSingleTableLayoutIsEmpty(t *testing.T) {
	s := catalog.NewSchema()
	a := s.AddTable("a", catalog.PK("id"), catalog.Attr("x"))
	q := query.New([]*catalog.Table{a}, nil, []query.Predicate{{Col: a.Column("x"), Op: query.OpLT, Operand: 3}})
	if l := NewLayout(q, q.AllTablesMask()); l.Width() != 0 || l.FullWidth() != 2 {
		t.Fatalf("single-table layout width=%d fullWidth=%d", l.Width(), l.FullWidth())
	}
}

// genQuery builds a random connected n-table query over fresh tables of 3-5
// columns: a chain, a star, a cycle, or a random tree, optionally with a
// second condition between one already-joined table pair.
func genQuery(rng *rand.Rand, n int) *query.Query {
	s := catalog.NewSchema()
	tabs := make([]*catalog.Table, n)
	for i := range tabs {
		specs := []catalog.ColumnSpec{catalog.PK("id")}
		for c := 1; c < 3+rng.Intn(3); c++ {
			specs = append(specs, catalog.Attr(fmt.Sprintf("c%d", c)))
		}
		tabs[i] = s.AddTable(fmt.Sprintf("t%d", i), specs...)
	}
	randCol := func(t *catalog.Table) *catalog.Column { return t.Columns[rng.Intn(len(t.Columns))] }
	var joins []query.Join
	link := func(i, j int) { joins = append(joins, query.Join{Left: randCol(tabs[i]), Right: randCol(tabs[j])}) }
	shape := rng.Intn(4)
	for i := 1; i < n; i++ {
		switch shape {
		case 0, 2: // chain (2: closed into a cycle below)
			link(i-1, i)
		case 1: // star
			link(0, i)
		default: // random tree
			link(rng.Intn(i), i)
		}
	}
	if shape == 2 && n > 2 {
		link(n-1, 0)
	}
	if rng.Intn(2) == 0 {
		j := joins[rng.Intn(len(joins))]
		joins = append(joins, query.Join{Left: randCol(j.Left.Table), Right: randCol(j.Right.Table)})
	}
	return query.New(tabs, joins, nil)
}

// Property: for generated 2-8-table queries and every connected mask, the
// live set is exactly the cross-mask condition columns in (table, position)
// order; every connected split resolves its join columns in the child that
// holds them; a parent's live columns all come from a child; the full mask
// is empty.
func TestLayoutLivenessProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for iter := 0; iter < 120; iter++ {
		q := genQuery(rng, 2+iter%7)
		full := q.AllTablesMask()
		if w := NewLayout(q, full).Width(); w != 0 {
			t.Fatalf("%s: full mask has width %d", q.SQL(), w)
		}
		for mask := query.BitSet(1); mask <= full; mask++ {
			if !q.Connected(mask) {
				continue
			}
			l := NewLayout(q, mask)
			// independent oracle: every column, in order, tested against
			// every condition
			var want []*catalog.Column
			fullWidth := 0
			for i, tab := range q.Tables {
				if !mask.Has(i) {
					continue
				}
				fullWidth += len(tab.Columns)
				for _, col := range tab.Columns {
					crosses := false
					for _, j := range q.Joins {
						if (j.Left == col && !mask.Has(q.TableIndex(j.Right.Table))) ||
							(j.Right == col && !mask.Has(q.TableIndex(j.Left.Table))) {
							crosses = true
						}
					}
					if crosses {
						want = append(want, col)
					}
				}
			}
			if !slices.Equal(l.Live(), want) || l.Width() != len(want) || l.FullWidth() != fullWidth {
				t.Fatalf("%s mask %b: live %v (full width %d), want %v (%d)", q.SQL(), uint32(mask), l.Live(), l.FullWidth(), want, fullWidth)
			}
			for i, col := range want {
				if l.ColOffset(col) != i {
					t.Fatalf("%s mask %b: ColOffset(%s) = %d, want %d", q.SQL(), uint32(mask), col.QualifiedName(), l.ColOffset(col), i)
				}
			}
			// every connected split (L, R) of mask
			for left := (mask - 1) & mask; left != 0; left = (left - 1) & mask {
				right := mask &^ left
				if !q.Connected(left) || !q.Connected(right) {
					continue
				}
				ll, rl := NewLayout(q, left), NewLayout(q, right)
				for _, j := range q.JoinsBetween(left, right) {
					lc, rc := j.Left, j.Right
					if !left.Has(q.TableIndex(lc.Table)) {
						lc, rc = rc, lc
					}
					ll.ColOffset(lc) // panics when dead
					rl.ColOffset(rc)
				}
				for _, col := range want {
					child := rl
					if left.Has(q.TableIndex(col.Table)) {
						child = ll
					}
					child.ColOffset(col) // live(L∪R) ⊆ live(L) ∪ live(R)
				}
			}
		}
	}
}

func TestPhysOpStrings(t *testing.T) {
	if HashJoin.String() != "HashJoin" || SeqScan.String() != "SeqScan" {
		t.Fatal("op strings broken")
	}
	if !NestLoopJoin.IsJoin() || SeqScan.IsJoin() {
		t.Fatal("IsJoin broken")
	}
}
