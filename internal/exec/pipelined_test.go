package exec

import (
	"errors"
	"testing"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// checkAll sets a pipelined check of limit rows on every join it is asked
// about and records the reports; it stops the pipeline at stopAt.
type checkAll struct {
	NopController
	limit   int
	stopAt  query.BitSet
	asked   []*plan.Node
	reports map[*plan.Node][]int
}

func (c *checkAll) CheckRows(n *plan.Node) int {
	c.asked = append(c.asked, n)
	return c.limit
}

func (c *checkAll) OnPipelined(n *plan.Node, rows int) error {
	if c.reports == nil {
		c.reports = make(map[*plan.Node][]int)
	}
	c.reports[n] = append(c.reports[n], rows)
	if n.Tables == c.stopAt {
		return &ReoptSignal{Node: n, Actual: rows, LowerBound: true}
	}
	return nil
}

// pipelinedPlans are left-deep plans with hash joins below the root: a
// chain of unique builds (probeUnique), canonical plans of generated
// queries (both probe paths), and the same with the middle join a nested
// loop.
func pipelinedPlans(t *testing.T) []struct {
	name string
	ctx  func() *Ctx
	plan func() *plan.Node
} {
	t.Helper()
	chDB, chQ := chainDB(64)
	db := testutil.TinyDB()
	out := []struct {
		name string
		ctx  func() *Ctx
		plan func() *plan.Node
	}{{"chain", func() *Ctx { return &Ctx{DB: chDB, Q: chQ} }, func() *plan.Node { return chainPlan(chQ) }}}
	for i, q := range workload.NewGenerator(db, 31).QueriesRange(6, 3, 4) {
		out = append(out, struct {
			name string
			ctx  func() *Ctx
			plan func() *plan.Node
		}{q.SQL(), func() *Ctx { return &Ctx{DB: db, Q: q} }, func() *plan.Node {
			p := CanonicalPlan(q, q.AllTablesMask())
			if i%2 == 1 {
				p.Left.Op = plan.NestLoopJoin
			}
			return p
		}})
	}
	return out
}

// TestPipelinedChecksBelowTheRoot: only hash joins below the root are asked
// for a limit; each reports at most once, at a count between the limit and
// its full output; reporting leaves the result as it is, and a stop unwinds
// Run with the lower bound.
func TestPipelinedChecksBelowTheRoot(t *testing.T) {
	reports, stops := 0, 0
	for _, tc := range pipelinedPlans(t) {
		ref := tc.plan()
		want, err := Run(tc.ctx(), ref)
		if err != nil {
			t.Fatal(err)
		}
		full := map[query.BitSet]float64{}
		ref.Walk(func(n *plan.Node) { full[n.Tables] = n.TrueCard })

		c := &checkAll{limit: 2}
		ctx := tc.ctx()
		ctx.Controller = c
		p := tc.plan()
		got, err := Run(ctx, p)
		if err != nil || got != want {
			t.Fatalf("%s: count %d, err %v; want %d", tc.name, got, err, want)
		}
		var below []*plan.Node
		p.Walk(func(n *plan.Node) {
			if n != p && n.Op == plan.HashJoin {
				below = append(below, n)
			}
		})
		if len(c.asked) != len(below) {
			t.Fatalf("%s: asked %d joins, want the %d hash joins below the root", tc.name, len(c.asked), len(below))
		}
		for _, n := range c.asked {
			if n == p || n.Op != plan.HashJoin {
				t.Fatalf("%s: asked about %v %v", tc.name, n.Op, n.Tables)
			}
		}
		reports += len(c.reports)
		for n, rs := range c.reports {
			if len(rs) != 1 || rs[0] < c.limit || float64(rs[0]) > full[n.Tables] {
				t.Fatalf("%s: join %v reported %v, want once in [%d, %.0f]", tc.name, n.Tables, rs, c.limit, full[n.Tables])
			}
		}
		for _, n := range below {
			if _, ok := c.reports[n]; ok != (full[n.Tables] >= float64(c.limit)) {
				t.Fatalf("%s: join %v of %.0f rows reported %v", tc.name, n.Tables, full[n.Tables], ok)
			}
		}

		// stop at the lowest join that reports
		if len(below) == 0 || full[below[len(below)-1].Tables] < 2 {
			continue
		}
		stop := below[len(below)-1].Tables
		ctx = tc.ctx()
		ctx.Controller = &checkAll{limit: 2, stopAt: stop}
		_, err = Run(ctx, tc.plan())
		var sig *ReoptSignal
		if !errors.As(err, &sig) || !sig.LowerBound || sig.Node.Tables != stop || sig.Actual < 2 {
			t.Fatalf("%s: stop at %v returned %v", tc.name, stop, err)
		}
		stops++
	}
	if reports == 0 || stops == 0 {
		t.Fatalf("%d reports, %d stops: the checks went unexercised", reports, stops)
	}
}

// TestNopControllerSetsNoCheck: without a controller that asks for one, no
// join carries a check.
func TestNopControllerSetsNoCheck(t *testing.T) {
	db, q := chainDB(64)
	for _, ctrl := range []Controller{nil, NopController{}} {
		ctx := &Ctx{DB: db, Q: q, Controller: ctrl}
		p := chainPlan(q)
		op, err := Build(ctx, p.Left)
		if err != nil {
			t.Fatal(err)
		}
		if h := op.(*batchHashJoin); h.checkAt != 0 {
			t.Fatalf("controller %T set a check at %d rows", ctrl, h.checkAt)
		}
	}
}
