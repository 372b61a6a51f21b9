package exec

import (
	"errors"
	"testing"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

func newCtx(db *storage.Database, q *query.Query) *Ctx {
	return &Ctx{DB: db, Q: q, Controller: NopController{}}
}

// setJoinOps overrides the physical operator of every join in the tree.
func setJoinOps(n *plan.Node, op plan.PhysOp) {
	n.Walk(func(x *plan.Node) {
		if x.Op.IsJoin() {
			x.Op = op
		}
	})
}

func TestRunMatchesBruteForce(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 11)
	for i := 0; i < 12; i++ {
		q := g.Query(1 + i%2)
		want := testutil.BruteCount(db, q)
		p := CanonicalPlan(q, q.AllTablesMask())
		got, err := Run(newCtx(db, q), p)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		if got != want {
			t.Fatalf("query %d (%s): engine %d, brute force %d", i, q.SQL(), got, want)
		}
	}
}

func TestAllJoinOperatorsAgree(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 12)
	for i := 0; i < 10; i++ {
		q := g.Query(2 + i%3)
		ref, err := RunCollect(newCtx(db, q), CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		for _, op := range []plan.PhysOp{plan.HashJoin, plan.NestLoopJoin} {
			p := CanonicalPlan(q, q.AllTablesMask())
			setJoinOps(p, op)
			got, err := Run(newCtx(db, q), p)
			if err != nil {
				t.Fatalf("query %d op %v: %v", i, op, err)
			}
			if got != ref {
				t.Fatalf("query %d (%s): %v returned %d, reference %d", i, q.SQL(), op, got, ref)
			}
		}
	}
}

func TestBushyPlanAgrees(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 13)
	for i := 0; i < 20; i++ {
		q := g.Query(3)
		ref, err := RunCollect(newCtx(db, q), CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		// bushy shape: (t0 ⋈ t1) ⋈ (t2 ⋈ t3) when both pairs are connected
		m01 := query.NewBitSet().Set(0).Set(1)
		m23 := query.NewBitSet().Set(2).Set(3)
		if !q.Connected(m01) || !q.Connected(m23) || len(q.JoinsBetween(m01, m23)) == 0 {
			continue
		}
		left := CanonicalPlan(q, m01)
		right := CanonicalPlan(q, m23)
		root := plan.NewJoin(plan.HashJoin, left, right, q.JoinsBetween(m01, m23))
		got, err := Run(newCtx(db, q), root)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("bushy plan returned %d, reference %d for %s", got, ref, q.SQL())
		}
	}
}

func TestIndexScanAgreesWithSeqScan(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 14)
	tested := 0
	for i := 0; i < 40 && tested < 10; i++ {
		q := g.Query(1)
		p := CanonicalPlan(q, q.AllTablesMask())
		ref, err := Run(newCtx(db, q), p.Clone())
		if err != nil {
			t.Fatal(err)
		}
		// convert every predicated leaf into an index scan
		idxPlan := p.Clone()
		converted := false
		idxPlan.Walk(func(n *plan.Node) {
			if n.IsLeaf() && len(n.Preds) > 0 && n.Preds[0].Op != query.OpNE {
				n.Op = plan.IndexScan
				n.IndexPred = &n.Preds[0]
				converted = true
			}
		})
		if !converted {
			continue
		}
		tested++
		got, err := Run(newCtx(db, q), idxPlan)
		if err != nil {
			t.Fatal(err)
		}
		if got != ref {
			t.Fatalf("index scan returned %d, seq scan %d for %s", got, ref, q.SQL())
		}
	}
	if tested == 0 {
		t.Fatal("no index-scannable queries generated")
	}
}

func TestTrueCardsStampedOnAllNodes(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 15)
	q := g.Query(3)
	p := CanonicalPlan(q, q.AllTablesMask())
	if _, err := RunCollect(newCtx(db, q), p); err != nil {
		t.Fatal(err)
	}
	p.Walk(func(n *plan.Node) {
		if n.TrueCard < 0 {
			t.Fatalf("node %v missing TrueCard", n.Op)
		}
	})
}

type recordingController struct {
	events []struct {
		mask query.BitSet
		card int
	}
	failAt query.BitSet
}

func (r *recordingController) OnMaterialized(n *plan.Node, rows plan.Rows) error {
	r.events = append(r.events, struct {
		mask query.BitSet
		card int
	}{n.Tables, rows.N})
	if r.failAt != 0 && n.Tables == r.failAt {
		return &ReoptSignal{Node: n, Actual: rows.N}
	}
	return nil
}

func TestCheckpointsFireAtPipelineBreakers(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 16)
	q := g.Query(2)
	p := CanonicalPlan(q, q.AllTablesMask()) // two hash joins
	rc := &recordingController{}
	ctx := &Ctx{DB: db, Q: q, Controller: rc}
	if _, err := Run(ctx, p); err != nil {
		t.Fatal(err)
	}
	// each hash join checkpoints its build (right) side: 2 events
	if len(rc.events) != 2 {
		t.Fatalf("checkpoint events = %d, want 2", len(rc.events))
	}
	for _, e := range rc.events {
		if e.card < 0 {
			t.Fatal("negative cardinality")
		}
	}
}

func TestReoptSignalPropagates(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 17)
	q := g.Query(2)
	p := CanonicalPlan(q, q.AllTablesMask())
	// fail at the first hash build: the rightmost leaf of the lower join
	failMask := p.Left.Right.Tables
	rc := &recordingController{failAt: failMask}
	_, err := Run(&Ctx{DB: db, Q: q, Controller: rc}, p)
	var sig *ReoptSignal
	if !errors.As(err, &sig) {
		t.Fatalf("expected ReoptSignal, got %v", err)
	}
	if sig.Node.Tables != failMask {
		t.Fatalf("signal at %b, want %b", uint32(sig.Node.Tables), uint32(failMask))
	}
	if sig.Error() == "" {
		t.Fatal("signal should render an error message")
	}
}

func TestBudgetEnforced(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 18)
	q := g.Query(3)
	p := CanonicalPlan(q, q.AllTablesMask())
	ctx := &Ctx{DB: db, Q: q, Controller: NopController{}, Budget: 10}
	_, err := Run(ctx, p)
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("expected ErrBudget, got %v", err)
	}
	if ctx.Work() <= 10 {
		t.Fatal("work counter should exceed budget at failure")
	}
}

func TestMatScanReplay(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 19)
	q := g.Query(2)
	// materialize the lower join's subset, then re-plan using it as a leaf
	sub := query.NewBitSet().Set(0).Set(1)
	if !q.Connected(sub) {
		t.Skip("generated query lacks a connected 0-1 pair")
	}
	ctx := newCtx(db, q)
	rows, err := collect(ctx, CanonicalPlan(q, sub))
	if err != nil {
		t.Fatal(err)
	}
	mat := &plan.Materialized{Tables: sub, Rows: rows}
	leaf := plan.NewMatLeaf(mat)
	restIdx := q.AllTablesMask().Clear(0).Clear(1).First()
	rest := plan.NewLeaf(plan.SeqScan, q.Tables[restIdx], restIdx, q.PredsOn(q.Tables[restIdx]))
	conds := q.JoinsBetween(sub, query.NewBitSet().Set(restIdx))
	if len(conds) == 0 {
		t.Skip("no join between materialized pair and remainder")
	}
	root := plan.NewJoin(plan.HashJoin, leaf, rest, conds)
	got, err := Run(newCtx(db, q), root)
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunCollect(newCtx(db, q), CanonicalPlan(q, q.AllTablesMask()))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("materialized resume returned %d, want %d", got, want)
	}
}

func TestOracleMatchesCollectAndMemoizes(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 20)
	q := g.Query(2)
	o := NewTrueCardOracle(db)
	full := q.AllTablesMask()
	want, err := RunCollect(newCtx(db, q), CanonicalPlan(q, full))
	if err != nil {
		t.Fatal(err)
	}
	if got := o.EstimateSubset(q, full); int(got) != want {
		t.Fatalf("oracle = %v, want %d", got, want)
	}
	// memoized second call must agree
	if got := o.EstimateSubset(q, full); int(got) != want {
		t.Fatal("memoized oracle result differs")
	}
	if o.Name() != "oracle" {
		t.Fatal("oracle name")
	}
}

func TestCanonicalPlanConnectedNoCross(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 21)
	for i := 0; i < 20; i++ {
		q := g.Query(4)
		p := CanonicalPlan(q, q.AllTablesMask())
		p.Walk(func(n *plan.Node) {
			if n.Op.IsJoin() && len(n.JoinConds) == 0 {
				t.Fatalf("canonical plan contains a cross join for %s", q.SQL())
			}
		})
		if p.NumNodes() != 2*len(q.Tables)-1 {
			t.Fatalf("canonical plan has %d nodes for %d tables", p.NumNodes(), len(q.Tables))
		}
	}
}

// TestHashKeyDistinguishesOrder: the join-key hash mixes the key columns in
// condition order, so swapping two key values changes the hash.
func TestHashKeyDistinguishesOrder(t *testing.T) {
	conds := []condOffsets{{leftOff: 0, rightOff: 0}, {leftOff: 1, rightOff: 1}}
	a := hashRowConds([]int64{1, 2}, conds, true)
	b := hashRowConds([]int64{2, 1}, conds, true)
	if a == b {
		t.Fatal("hashRowConds should be order-sensitive")
	}
}
