package reopt

import (
	"errors"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/obs"
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

// TestTriggerRuleSharedByBothKinds: a materialized checkpoint and a
// pipelined check of the same count get the same verdict, for the trigger
// and for each suppression reason, and record it the same way.
func TestTriggerRuleSharedByBothKinds(t *testing.T) {
	cases := []struct {
		name    string
		policy  Policy
		est     float64
		cost    float64 // the node's share of a plan costing 1000
		reopts  int     // re-optimizations already done
		actual  int
		verdict string
	}{
		{"trigger", Policy{QErrThreshold: 50, MaxReopts: 3}, 10, 100, 0, 600, ""},
		{"max-reopts", Policy{QErrThreshold: 50, MaxReopts: 3}, 10, 100, 3, 600, "max-reopts"},
		{"no-estimate", Policy{QErrThreshold: 50, MaxReopts: 3}, 0, 100, 0, 600, "no-estimate"},
		{"below-threshold", Policy{QErrThreshold: 50, MaxReopts: 3}, 10, 100, 0, 500, "below-threshold"},
		{"remaining-cost", Policy{QErrThreshold: 50, MaxReopts: 3, MinRemainingCostFrac: 0.5}, 10, 900, 0, 600, "remaining-cost"},
	}
	for _, tc := range cases {
		var events []obs.ReoptEvent
		for _, pipelined := range []bool{false, true} {
			qt := &obs.QueryTrace{}
			qt.NewRound()
			c := NewController(tc.policy)
			c.Trace, c.Reopts = qt, tc.reopts
			root := twoTableNode(tc.est)
			root.EstCost = 1000
			c.SetPlan(root)
			n := twoTableNode(tc.est)
			n.EstCost = tc.cost
			var err error
			if pipelined {
				err = c.OnPipelined(n, tc.actual)
			} else {
				err = c.OnMaterialized(n, rows(tc.actual))
			}
			var sig *exec.ReoptSignal
			if fired := errors.As(err, &sig); fired != (tc.verdict == "") {
				t.Fatalf("%s, pipelined %v: signal %v, want fired %v", tc.name, pipelined, err, tc.verdict == "")
			}
			if sig != nil && (sig.LowerBound != pipelined || sig.Actual != tc.actual) {
				t.Fatalf("%s: signal %+v, want lower bound %v", tc.name, sig, pipelined)
			}
			if len(qt.Events) != 1 || qt.Events[0].Suppressed != tc.verdict || qt.Events[0].LowerBound != pipelined {
				t.Fatalf("%s, pipelined %v: events %+v, want one with verdict %q", tc.name, pipelined, qt.Events, tc.verdict)
			}
			ev := qt.Events[0]
			ev.LowerBound = false
			events = append(events, ev)
		}
		if events[0] != events[1] {
			t.Fatalf("%s: checkpoint event %+v, pipelined %+v", tc.name, events[0], events[1])
		}
	}
}

// TestMaxReoptsCountsBothKinds: one cap bounds checkpoint and pipelined
// triggers together.
func TestMaxReoptsCountsBothKinds(t *testing.T) {
	c := NewController(Policy{QErrThreshold: 10, MaxReopts: 2})
	if err := c.OnMaterialized(twoTableNode(1), rows(1000)); err == nil {
		t.Fatal("checkpoint should trigger")
	}
	if err := c.OnPipelined(twoTableNode(1), 1000); err == nil {
		t.Fatal("pipelined check should trigger")
	}
	if err := c.OnMaterialized(twoTableNode(1), rows(1000)); err != nil {
		t.Fatal("third trigger should be capped")
	}
	if err := c.OnPipelined(twoTableNode(1), 1000); err != nil {
		t.Fatal("fourth trigger should be capped")
	}
	if c.Reopts != 2 {
		t.Fatalf("reopts = %d", c.Reopts)
	}
}

// TestCheckRows: a pipelined join is checked at the first count whose
// q-error exceeds the threshold, with the estimate floored at 1 as QError
// floors it, and never without an estimate.
func TestCheckRows(t *testing.T) {
	c := NewController(Policy{QErrThreshold: 50, MaxReopts: 3})
	for _, tc := range []struct {
		est  float64
		want int
	}{{10, 501}, {2.5, 126}, {0.2, 51}, {0, 0}, {1e300, 0}} {
		got := c.CheckRows(twoTableNode(tc.est))
		if got != tc.want {
			t.Fatalf("CheckRows(est %v) = %d, want %d", tc.est, got, tc.want)
		}
		if got > 0 && (obs.QError(float64(got), tc.est) <= 50 || obs.QError(float64(got-1), tc.est) > 50) {
			t.Fatalf("est %v: limit %d is not the first count past the threshold", tc.est, got)
		}
	}
}

// TestPipelinedBoundsKeptAndReleased: every pipelined check leaves its
// bound, suppressed or not, materializing the subset supersedes its bounds,
// and Release drops them.
func TestPipelinedBoundsKeptAndReleased(t *testing.T) {
	c := NewController(Policy{QErrThreshold: 10, MaxReopts: 1})
	n := twoTableNode(1)
	_ = c.OnPipelined(n, 100)
	_ = c.OnPipelined(n, 300) // capped, but the bound holds
	if got := c.Bounds(); len(got) != 2 || got[0] != (Bound{n.Tables, 100}) || got[1] != (Bound{n.Tables, 300}) {
		t.Fatalf("bounds = %+v", got)
	}
	_ = c.OnMaterialized(n, rows(400))
	if got := c.Bounds(); len(got) != 2 || got[0] != (Bound{n.Tables, 0}) || got[1] != (Bound{n.Tables, 0}) {
		t.Fatalf("bounds after materializing their subset = %+v, want both 0", got)
	}
	c.Release()
	if got := c.Bounds(); len(got) != 0 {
		t.Fatalf("bounds after Release = %+v", got)
	}
}
