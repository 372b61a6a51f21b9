package query

import (
	"strings"
	"testing"
	"testing/quick"

	"github.com/lpce-db/lpce/internal/catalog"
)

func testSchema() *catalog.Schema {
	s := catalog.NewSchema()
	a := s.AddTable("a", catalog.PK("id"), catalog.Attr("x"))
	b := s.AddTable("b", catalog.FK("a_id", a.Column("id")), catalog.Attr("y"))
	s.AddTable("c", catalog.FK("b_y", b.Column("y")))
	return s
}

func chainQuery(s *catalog.Schema) *Query {
	a, b, c := s.Table("a"), s.Table("b"), s.Table("c")
	return New(
		[]*catalog.Table{c, a, b}, // deliberately unsorted
		[]Join{
			{Left: b.Column("a_id"), Right: a.Column("id")},
			{Left: c.Column("b_y"), Right: b.Column("y")},
		},
		[]Predicate{{Col: a.Column("x"), Op: OpGT, Operand: 5}},
	)
}

func TestQueryTableOrderCanonical(t *testing.T) {
	s := testSchema()
	q := chainQuery(s)
	for i := 1; i < len(q.Tables); i++ {
		if q.Tables[i-1].ID >= q.Tables[i].ID {
			t.Fatal("tables not sorted by catalog ID")
		}
	}
	if q.NumJoins() != 2 {
		t.Fatalf("joins = %d", q.NumJoins())
	}
}

func TestTableIndex(t *testing.T) {
	s := testSchema()
	q := chainQuery(s)
	for i, tab := range q.Tables {
		if q.TableIndex(tab) != i {
			t.Fatalf("TableIndex(%s) = %d, want %d", tab.Name, q.TableIndex(tab), i)
		}
	}
	other := catalog.NewSchema().AddTable("z", catalog.PK("id"))
	if q.TableIndex(other) != -1 {
		t.Fatal("foreign table should map to -1")
	}
}

func TestPredsOn(t *testing.T) {
	s := testSchema()
	q := chainQuery(s)
	a := s.Table("a")
	if got := q.PredsOn(a); len(got) != 1 || got[0].Col.Name != "x" {
		t.Fatalf("PredsOn(a) = %v", got)
	}
	if got := q.PredsOn(s.Table("b")); len(got) != 0 {
		t.Fatalf("PredsOn(b) = %v", got)
	}
}

func TestJoinsWithinBetween(t *testing.T) {
	s := testSchema()
	q := chainQuery(s)
	ai := q.TableIndex(s.Table("a"))
	bi := q.TableIndex(s.Table("b"))
	ci := q.TableIndex(s.Table("c"))

	ab := NewBitSet().Set(ai).Set(bi)
	if got := q.JoinsWithin(ab); len(got) != 1 {
		t.Fatalf("JoinsWithin(ab) = %v", got)
	}
	full := ab.Set(ci)
	if got := q.JoinsWithin(full); len(got) != 2 {
		t.Fatalf("JoinsWithin(full) = %v", got)
	}
	if got := q.JoinsBetween(NewBitSet().Set(ai), NewBitSet().Set(ci)); len(got) != 0 {
		t.Fatalf("a and c share no direct join, got %v", got)
	}
	if got := q.JoinsBetween(ab, NewBitSet().Set(ci)); len(got) != 1 {
		t.Fatalf("ab-c should share 1 join, got %v", got)
	}
}

func TestConnected(t *testing.T) {
	s := testSchema()
	q := chainQuery(s)
	ai := q.TableIndex(s.Table("a"))
	bi := q.TableIndex(s.Table("b"))
	ci := q.TableIndex(s.Table("c"))
	if !q.Connected(q.AllTablesMask()) {
		t.Fatal("full chain should be connected")
	}
	if q.Connected(NewBitSet().Set(ai).Set(ci)) {
		t.Fatal("a-c without b is disconnected")
	}
	if !q.Connected(NewBitSet().Set(ai)) {
		t.Fatal("singleton is connected")
	}
	if q.Connected(NewBitSet()) {
		t.Fatal("empty set is not connected")
	}
	if !q.Connected(NewBitSet().Set(bi).Set(ci)) {
		t.Fatal("b-c should be connected")
	}
}

func TestPredicateEval(t *testing.T) {
	cases := []struct {
		op   Op
		arg  int64
		v    int64
		want bool
	}{
		{OpEQ, 5, 5, true}, {OpEQ, 5, 6, false},
		{OpNE, 5, 6, true}, {OpNE, 5, 5, false},
		{OpLT, 5, 4, true}, {OpLT, 5, 5, false},
		{OpLE, 5, 5, true}, {OpLE, 5, 6, false},
		{OpGT, 5, 6, true}, {OpGT, 5, 5, false},
		{OpGE, 5, 5, true}, {OpGE, 5, 4, false},
	}
	for _, c := range cases {
		p := Predicate{Op: c.op, Operand: c.arg}
		if p.Eval(c.v) != c.want {
			t.Fatalf("%v %d on %d: got %v", c.op, c.arg, c.v, !c.want)
		}
	}
	in := Predicate{Op: OpIn, InSet: []int64{1, 3, 5}}
	if !in.Eval(3) || in.Eval(2) {
		t.Fatal("IN evaluation broken")
	}
}

func TestSQLRendering(t *testing.T) {
	s := testSchema()
	q := chainQuery(s)
	sql := q.SQL()
	for _, frag := range []string{"SELECT COUNT(*)", "FROM a, b, c", "b.a_id = a.id", "a.x > 5"} {
		if !strings.Contains(sql, frag) {
			t.Fatalf("SQL %q missing %q", sql, frag)
		}
	}
}

func TestNewPanicsOnForeignReference(t *testing.T) {
	s := testSchema()
	a, b := s.Table("a"), s.Table("b")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when join references absent table")
		}
	}()
	New([]*catalog.Table{a}, []Join{{Left: b.Column("a_id"), Right: a.Column("id")}}, nil)
}

func TestBitSetBasics(t *testing.T) {
	b := NewBitSet().Set(1).Set(4)
	if !b.Has(1) || !b.Has(4) || b.Has(0) {
		t.Fatal("Has broken")
	}
	if b.Count() != 2 {
		t.Fatalf("Count = %d", b.Count())
	}
	if b.First() != 1 {
		t.Fatalf("First = %d", b.First())
	}
	if NewBitSet().First() != -1 {
		t.Fatal("First of empty should be -1")
	}
	if got := b.Indices(); len(got) != 2 || got[0] != 1 || got[1] != 4 {
		t.Fatalf("Indices = %v", got)
	}
	if b.Clear(1).Has(1) {
		t.Fatal("Clear broken")
	}
	if !b.Intersects(NewBitSet().Set(4)) || b.Intersects(NewBitSet().Set(9)) {
		t.Fatal("Intersects broken")
	}
}

func TestBitSetUnionCountProperty(t *testing.T) {
	f := func(a, b uint16) bool {
		x, y := BitSet(a), BitSet(b)
		u := x.Union(y)
		// |A ∪ B| = |A| + |B| − |A ∩ B|
		inter := 0
		for i := 0; i < 16; i++ {
			if x.Has(i) && y.Has(i) {
				inter++
			}
		}
		return u.Count() == x.Count()+y.Count()-inter
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestNewPanicsPastMaxTables: a BitSet has one bit per table, so a query of
// more than MaxTables tables cannot be represented and New refuses it rather
// than plan without some of its tables.
func TestNewPanicsPastMaxTables(t *testing.T) {
	s := graphSchema(MaxTables + 1)
	New(s.Tables[:MaxTables], nil, nil) // at the limit: fine
	defer func() {
		if recover() == nil {
			t.Fatalf("New accepted %d tables", MaxTables+1)
		}
	}()
	New(s.Tables, nil, nil)
}

// TestBitSetAtMaxTables checks the top bit of a MaxTables-table query: the
// full mask holds every table, and a chain over all of them is connected
// only as a whole.
func TestBitSetAtMaxTables(t *testing.T) {
	s := graphSchema(MaxTables)
	var joins []Join
	for i := 1; i < MaxTables; i++ {
		joins = append(joins, Join{Left: s.Tables[i-1].Column("id"), Right: s.Tables[i].Column("a")})
	}
	q := New(s.Tables, joins, nil)
	full := q.AllTablesMask()
	if full != ^BitSet(0) || full.Count() != MaxTables || !full.Has(MaxTables-1) {
		t.Fatalf("full mask %b, count %d", uint32(full), full.Count())
	}
	if got := full.Indices(); len(got) != MaxTables || got[MaxTables-1] != MaxTables-1 {
		t.Fatalf("Indices = %v", got)
	}
	top := NewBitSet().Set(MaxTables - 1)
	if top.First() != MaxTables-1 || top.Count() != 1 {
		t.Fatalf("top bit %b: First %d, Count %d", uint32(top), top.First(), top.Count())
	}
	if !q.Connected(full) || q.Connected(full.Clear(MaxTables/2)) {
		t.Fatal("chain over every table: connectivity wrong")
	}
	if got := q.Neighbors(top); got != NewBitSet().Set(MaxTables-2) {
		t.Fatalf("Neighbors(top) = %b", uint32(got))
	}
	if got := q.JoinsBetween(full.Clear(MaxTables-1), top); len(got) != 1 || got[0] != joins[MaxTables-2] {
		t.Fatalf("JoinsBetween(rest, top) = %v", got)
	}
}
