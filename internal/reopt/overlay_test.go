package reopt

import (
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
)

// TestOverlayRefinerForwardsSessions: the refiner's overlay estimates under
// its base's name plus "+overlay", opens one base session per search, and
// its session returns what the stateless estimate does for every subset a
// search asks for — all but the executed one.
func TestOverlayRefinerForwardsSessions(t *testing.T) {
	q := testQuerySchema().q
	ab := query.NewBitSet().Set(0).Set(1)
	base := &sessionBase{fn: func(m query.BitSet) float64 { return 10 * float64(m.Count()) }}
	o := OverlayRefiner{Base: base}.Estimator(q, []Executed{executed(ab, 5000)})
	if o.Name() != "base+overlay" {
		t.Fatalf("name = %s", o.Name())
	}
	sess := cardest.BeginQuery(o, q)
	if base.begun != 1 {
		t.Fatalf("BeginQuery opened %d base sessions, want 1", base.begun)
	}
	for _, c := range []struct {
		mask query.BitSet
		want float64
	}{
		{query.NewBitSet().Set(0), 10},
		{query.NewBitSet().Set(2), 10},
		{query.NewBitSet().Set(1).Set(2), 20},
		{q.AllTablesMask(), 30 * 250}, // ab's ratio: 5000 over 20
	} {
		if got, gotS := o.EstimateSubset(q, c.mask), sess.EstimateSubset(q, c.mask); got != c.want || gotS != c.want {
			t.Fatalf("subset %b: %v, session %v, want %v", uint32(c.mask), got, gotS, c.want)
		}
	}
}

func TestOverlayRatioScaling(t *testing.T) {
	s := testQuerySchema()
	q := s.q
	base := cardest.Fixed{Value: 100, Label: "base"}
	sub := query.NewBitSet().Set(0).Set(1)
	// base estimated 100 for the executed subset, reality was 5000: 50x
	// underestimate, so containing subsets scale up 50x
	execs := []Executed{executed(sub, 5000)}
	o := OverlayRefiner{Base: base}.Estimator(q, execs)
	full := q.AllTablesMask()
	if got := o.EstimateSubset(q, full); got != 100*50 {
		t.Fatalf("containing subset = %v, want 5000", got)
	}
	// non-containing subsets pass through unchanged
	other := query.NewBitSet().Set(2)
	if got := o.EstimateSubset(q, other); got != 100 {
		t.Fatalf("unrelated subset = %v, want 100", got)
	}
}

func TestOverlayWithoutEstimates(t *testing.T) {
	sub := query.NewBitSet().Set(0)
	// the base has no usable estimate (below 1) for the executed subset
	base := cardest.FuncEstimator{Label: "base", Fn: func(_ *query.Query, m query.BitSet) float64 {
		if m == sub {
			return 0.5
		}
		return 100
	}}
	s := testQuerySchema()
	o := OverlayRefiner{Base: base}.Estimator(s.q, []Executed{executed(sub, 7)})
	// plain base for the subsets containing it (no ratio learned)
	if got := o.EstimateSubset(s.q, s.q.AllTablesMask()); got != 100 {
		t.Fatalf("containing without ratios = %v, want 100", got)
	}
}

func TestOverlayLargestContainedWins(t *testing.T) {
	s := testQuerySchema()
	q := s.q
	base := cardest.Fixed{Value: 100, Label: "base"}
	small := query.NewBitSet().Set(0)
	big := query.NewBitSet().Set(0).Set(1)
	execs := []Executed{
		executed(small, 1000),
		executed(big, 300),
	}
	// base estimates 100 for both: ratio 10 for small, 3 for big
	o := OverlayRefiner{Base: base}.Estimator(q, execs)
	// the bigger executed subset's ratio (3x) must be chosen over the
	// smaller one's (10x)
	if got := o.EstimateSubset(q, q.AllTablesMask()); got != 300 {
		t.Fatalf("estimate = %v, want 300 (ratio of largest contained subset)", got)
	}
}

func TestOverlayEqualSizeTieBreakDeterministic(t *testing.T) {
	s := testQuerySchema()
	q := s.q
	base := cardest.Fixed{Value: 100, Label: "base"}
	ab := query.NewBitSet().Set(0).Set(1) // mask 0b011
	bc := query.NewBitSet().Set(1).Set(2) // mask 0b110
	execs := []Executed{
		executed(bc, 300),  // ratio 3
		executed(ab, 1000), // ratio 10
	}
	full := q.AllTablesMask()
	// both executed subsets are the same size and both are contained in the
	// full mask; the smaller mask value (ab) must win every time, never the
	// map iteration order of the moment
	for trial := 0; trial < 50; trial++ {
		o := OverlayRefiner{Base: base}.Estimator(q, execs)
		if got := o.EstimateSubset(q, full); got != 1000 {
			t.Fatalf("trial %d: estimate = %v, want 1000 (ratio of smaller-mask subset)", trial, got)
		}
	}
}

func TestOverlayDedupLastWriteWins(t *testing.T) {
	s := testQuerySchema()
	q := s.q
	base := cardest.Fixed{Value: 100, Label: "base"}
	sub := query.NewBitSet().Set(0).Set(1)
	// the same subset executed twice: the later observation is fresher and
	// its ratio must win
	execs := []Executed{
		executed(sub, 200),
		executed(sub, 5000),
	}
	o := OverlayRefiner{Base: base}.Estimator(q, execs)
	if got := o.EstimateSubset(q, q.AllTablesMask()); got != 5000 {
		t.Fatalf("containing = %v, want 100*50 from the last-written ratio", got)
	}
	// a later execution that yields no ratio drops the stale one
	o = OverlayRefiner{Base: base}.Estimator(q, append(execs, executed(sub, 0)))
	if got := o.EstimateSubset(q, q.AllTablesMask()); got != 100 {
		t.Fatalf("containing = %v, want the plain 100 after a ratio-less execution", got)
	}
}

// executed returns an executed sub-plan over mask with the given count.
func executed(mask query.BitSet, card float64) Executed {
	return Executed{Node: &plan.Node{Tables: mask}, Card: card}
}

// chainFixture holds a 3-table chain query (a–b–c).
type chainFixture struct{ q *query.Query }

func testQuerySchema() chainFixture {
	s := catalog.NewSchema()
	a := s.AddTable("a", catalog.PK("id"))
	b := s.AddTable("b", catalog.FK("a_id", a.Column("id")), catalog.Attr("y"))
	c := s.AddTable("c", catalog.FK("b_y", b.Column("y")))
	q := query.New([]*catalog.Table{a, b, c},
		[]query.Join{
			{Left: b.Column("a_id"), Right: a.Column("id")},
			{Left: c.Column("b_y"), Right: b.Column("y")},
		}, nil)
	return chainFixture{q: q}
}

func TestCostAwareSuppression(t *testing.T) {
	c := NewController(Policy{QErrThreshold: 10, MaxReopts: 3, MinRemainingCostFrac: 0.5})
	root := twoTableNode(10)
	root.EstCost = 1000
	c.SetPlan(root)

	// a node that accounts for 90% of estimated cost: only 10% remains,
	// below the 50% threshold -> suppressed despite the huge q-error
	late := twoTableNode(10)
	late.EstCost = 900
	if err := c.OnMaterialized(late, rows(10000)); err != nil {
		t.Fatalf("late trigger should be suppressed: %v", err)
	}
	// an early node (10% of cost executed) still triggers
	early := twoTableNode(10)
	early.EstCost = 100
	if err := c.OnMaterialized(early, rows(10000)); err == nil {
		t.Fatal("early trigger should fire")
	}
}

func TestCostAwareDisabledByDefault(t *testing.T) {
	c := NewController(DefaultPolicy())
	root := twoTableNode(10)
	root.EstCost = 1000
	c.SetPlan(root)
	late := twoTableNode(10)
	late.EstCost = 999
	if err := c.OnMaterialized(late, rows(10000)); err == nil {
		t.Fatal("plain policy should trigger regardless of remaining cost")
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
