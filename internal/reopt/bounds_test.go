package reopt

import (
	"errors"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
)

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
// bound, suppressed or not, and Release drops them.
func TestPipelinedBoundsKeptAndReleased(t *testing.T) {
	c := NewController(Policy{QErrThreshold: 10, MaxReopts: 1})
	n := twoTableNode(1)
	_ = c.OnPipelined(n, 100)
	_ = c.OnPipelined(n, 300) // capped, but the bound holds
	if got := c.Bounds(); len(got) != 2 || got[0] != (Bound{n.Tables, 100}) || got[1] != (Bound{n.Tables, 300}) {
		t.Fatalf("bounds = %+v", got)
	}
	c.Release()
	if got := c.Bounds(); len(got) != 0 {
		t.Fatalf("bounds after Release = %+v", got)
	}
}

// sessionBase is a SessionEstimator whose sessions return what fn does.
type sessionBase struct {
	fn    func(query.BitSet) float64
	begun int
}

func (s *sessionBase) Name() string { return "base" }

func (s *sessionBase) EstimateSubset(_ *query.Query, m query.BitSet) float64 { return s.fn(m) }

func (s *sessionBase) BeginQuery(*query.Query) cardest.Estimator {
	s.begun++
	return cardest.FuncEstimator{Label: "base", Fn: func(_ *query.Query, m query.BitSet) float64 { return s.fn(m) }}
}

// TestBoundsOverlay: a bounded subset is estimated at no less than its
// bound; a subset containing bounded ones is scaled by the largest one's
// ratio to the base estimate; other subsets pass through; nothing goes
// below 1; and a session returns what the stateless estimate does.
func TestBoundsOverlay(t *testing.T) {
	q := testQuerySchema().q
	a, ab, bc := query.NewBitSet().Set(0), query.NewBitSet().Set(0).Set(1), query.NewBitSet().Set(1).Set(2)
	all := q.AllTablesMask()
	ests := map[query.BitSet]float64{ab: 100, bc: 50}
	base := &sessionBase{fn: func(m query.BitSet) float64 {
		if v, ok := ests[m]; ok {
			return v
		}
		if m == all {
			return 0.001
		}
		return 20
	}}
	if got := NewBounds(base, q, nil); got != cardest.Estimator(base) {
		t.Fatal("no bounds should leave the base estimator as it is")
	}
	// ab: a bound of 5000 against an estimate of 100 (a 50x ratio), seen
	// twice — the larger bound stays; bc: a bound below the estimate
	b := NewBounds(base, q, []Bound{{ab, 2000}, {bc, 10}, {ab, 5000}})
	if b.Name() != "base" {
		t.Fatalf("name = %s", b.Name())
	}
	want := map[query.BitSet]float64{
		ab:  5000, // max(100, 5000)
		bc:  50,   // max(50, 10)
		a:   20,   // contains no bound
		all: 1,    // 0.001 × 50 floors at 1
	}
	sess := cardest.BeginQuery(b, q)
	if base.begun != 1 {
		t.Fatalf("BeginQuery opened %d base sessions, want 1", base.begun)
	}
	for _, order := range [][]query.BitSet{{ab, bc, a, all}, {all, a, bc, ab}} {
		for _, m := range order {
			if got := b.EstimateSubset(q, m); got != want[m] {
				t.Fatalf("EstimateSubset(%v) = %v, want %v", m, got, want[m])
			}
			if got := sess.EstimateSubset(q, m); got != want[m] {
				t.Fatalf("session EstimateSubset(%v) = %v, want %v", m, got, want[m])
			}
		}
	}
	// ab and bc are the same size: the smaller mask's ratio wins whatever
	// the observation order
	ests[all] = 3
	rev := NewBounds(base, q, []Bound{{bc, 10}, {ab, 5000}})
	if got, got2 := b.EstimateSubset(q, all), rev.EstimateSubset(q, all); got != 3*50 || got2 != got {
		t.Fatalf("containing subset = %v and %v reversed, want 3 × 50", got, got2)
	}
}
