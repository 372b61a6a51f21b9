package reopt

import (
	"errors"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
)

func twoTableNode(est float64) *plan.Node {
	s := catalog.NewSchema()
	a := s.AddTable("a", catalog.PK("id"))
	b := s.AddTable("b", catalog.FK("a_id", a.Column("id")))
	q := query.New([]*catalog.Table{a, b},
		[]query.Join{{Left: b.Column("a_id"), Right: a.Column("id")}}, nil)
	la := plan.NewLeaf(plan.SeqScan, a, 0, nil)
	lb := plan.NewLeaf(plan.SeqScan, b, 1, nil)
	j := plan.NewJoin(plan.HashJoin, la, lb, q.Joins)
	j.EstCard = est
	return j
}

func rows(n int) plan.Rows {
	out := plan.Rows{Width: 2, N: n, Data: make([]int64, 2*n)}
	for i := 0; i < n; i++ {
		out.Data[2*i], out.Data[2*i+1] = int64(i), int64(i)
	}
	return out
}

func TestTriggerOnLargeQError(t *testing.T) {
	c := NewController(Policy{QErrThreshold: 50, MaxReopts: 3})
	n := twoTableNode(10)
	err := c.OnMaterialized(n, rows(10*51)) // q-error 51 > 50
	var sig *exec.ReoptSignal
	if !errors.As(err, &sig) {
		t.Fatalf("expected trigger, got %v", err)
	}
	if sig.Actual != 510 {
		t.Fatalf("actual = %d", sig.Actual)
	}
	if c.Reopts != 1 || sig.Node != n {
		t.Fatal("controller state not updated")
	}
}

func TestNoTriggerBelowThreshold(t *testing.T) {
	c := NewController(Policy{QErrThreshold: 50, MaxReopts: 3})
	n := twoTableNode(100)
	if err := c.OnMaterialized(n, rows(200)); err != nil { // q-error 2
		t.Fatalf("unexpected trigger: %v", err)
	}
	// underestimates and overestimates both count
	n2 := twoTableNode(100000)
	if err := c.OnMaterialized(n2, rows(10)); err == nil {
		t.Fatal("overestimate q-error should trigger too")
	}
}

func TestMaxReoptsBounds(t *testing.T) {
	c := NewController(Policy{QErrThreshold: 10, MaxReopts: 2})
	for i := 0; i < 2; i++ {
		if err := c.OnMaterialized(twoTableNode(1), rows(1000)); err == nil {
			t.Fatalf("trigger %d should fire", i)
		}
	}
	if err := c.OnMaterialized(twoTableNode(1), rows(1000)); err != nil {
		t.Fatal("third trigger should be suppressed by MaxReopts")
	}
	if c.Reopts != 2 {
		t.Fatalf("reopts = %d", c.Reopts)
	}
}

func TestMaterializedAccumulate(t *testing.T) {
	c := NewController(Policy{QErrThreshold: 1e12, MaxReopts: 3})
	n := twoTableNode(5)
	if err := c.OnMaterialized(n, rows(5)); err != nil {
		t.Fatal(err)
	}
	m := c.Materialized()
	if len(m) != 1 {
		t.Fatalf("mats = %d", len(m))
	}
	if m[n.Tables].Card() != 5 {
		t.Fatalf("mat card = %d", m[n.Tables].Card())
	}
	execs := c.ExecutedSubs()
	if len(execs) != 1 || execs[0].Card != 5 || execs[0].Mask() != n.Tables {
		t.Fatalf("execs = %+v", execs)
	}
}

func TestMatScanReplayIgnored(t *testing.T) {
	c := NewController(Policy{QErrThreshold: 2, MaxReopts: 3})
	mat := &plan.Materialized{Tables: query.NewBitSet().Set(0).Set(1), Rows: rows(100)}
	leaf := plan.NewMatLeaf(mat)
	leaf.EstCard = 1 // even a huge q-error must not re-trigger on replay
	if err := c.OnMaterialized(leaf, rows(100)); err != nil {
		t.Fatalf("MatScan replay should not trigger: %v", err)
	}
	if len(c.Materialized()) != 0 {
		t.Fatal("MatScan replay should not be re-recorded")
	}
}

func TestZeroEstimateIgnored(t *testing.T) {
	c := NewController(DefaultPolicy())
	n := twoTableNode(0) // un-annotated node
	if err := c.OnMaterialized(n, rows(1000)); err != nil {
		t.Fatalf("missing estimate should not trigger: %v", err)
	}
}

func TestDefaultPolicy(t *testing.T) {
	p := DefaultPolicy()
	if p.QErrThreshold != 50 || p.MaxReopts != 3 {
		t.Fatalf("default policy = %+v, paper uses threshold 50 and 3 reopts", p)
	}
}
