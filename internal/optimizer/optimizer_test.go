package optimizer

import (
	"math"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

func oracleOpt(db *storage.Database) *Optimizer {
	return New(db, exec.NewTrueCardOracle(db))
}

func TestPlanCoversAllTablesAndJoins(t *testing.T) {
	db := testutil.TinyDB()
	o := oracleOpt(db)
	g := workload.NewGenerator(db, 41)
	for i := 0; i < 15; i++ {
		q := g.Query(2 + i%4)
		p, stats, err := o.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		if p.Tables != q.AllTablesMask() {
			t.Fatalf("plan covers %b, want %b", uint32(p.Tables), uint32(q.AllTablesMask()))
		}
		joinConds := 0
		p.Walk(func(n *plan.Node) {
			if n.Op.IsJoin() {
				joinConds += len(n.JoinConds)
				if len(n.JoinConds) == 0 {
					t.Fatal("plan contains a cross join")
				}
			}
		})
		if joinConds != q.NumJoins() {
			t.Fatalf("plan applies %d join conds, query has %d", joinConds, q.NumJoins())
		}
		if stats.EstimateCalls == 0 {
			t.Fatal("no estimator calls recorded")
		}
	}
}

func TestPlanExecutesCorrectly(t *testing.T) {
	db := testutil.TinyDB()
	o := oracleOpt(db)
	g := workload.NewGenerator(db, 42)
	for i := 0; i < 10; i++ {
		q := g.Query(2 + i%3)
		p, _, err := o.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		ctx := &exec.Ctx{DB: db, Q: q, Controller: exec.NopController{}}
		got, err := exec.Run(ctx, p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := exec.RunCollect(&exec.Ctx{DB: db, Q: q},
			exec.CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("optimized plan returned %d, want %d for %s", got, want, q.SQL())
		}
	}
}

func TestOraclePlansBeatBadEstimates(t *testing.T) {
	// Plans chosen with exact cardinalities should not cost more actual
	// work than plans chosen with a constant (useless) estimator.
	db := testutil.SmallDB()
	g := workload.NewGenerator(db, 43)
	oracle := oracleOpt(db)
	fixed := New(db, cardest.Fixed{Value: 1000})

	var oracleWork, fixedWork int64
	for i := 0; i < 6; i++ {
		q := g.Query(4)
		po, _, err := oracle.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		pf, _, err := fixed.Plan(q)
		if err != nil {
			t.Fatal(err)
		}
		co := &exec.Ctx{DB: db, Q: q}
		if _, err := exec.Run(co, po); err != nil {
			t.Fatal(err)
		}
		cf := &exec.Ctx{DB: db, Q: q}
		if _, err := exec.Run(cf, pf); err != nil {
			t.Fatal(err)
		}
		oracleWork += co.Work()
		fixedWork += cf.Work()
	}
	if oracleWork > fixedWork*3/2 {
		t.Fatalf("oracle plans did %d work, fixed-estimate plans %d — cost model is inverted", oracleWork, fixedWork)
	}
}

func TestEstimateCacheOneCallPerSubset(t *testing.T) {
	db := testutil.TinyDB()
	calls := map[query.BitSet]int{}
	est := cardest.FuncEstimator{Label: "counting", Fn: func(q *query.Query, m query.BitSet) float64 {
		calls[m]++
		return 100
	}}
	o := New(db, est)
	g := workload.NewGenerator(db, 44)
	q := g.Query(4)
	if _, _, err := o.Plan(q); err != nil {
		t.Fatal(err)
	}
	for m, c := range calls {
		if c != 1 {
			t.Fatalf("subset %b estimated %d times", uint32(m), c)
		}
	}
}

func TestEstimateCallBudget(t *testing.T) {
	// Join-eight queries need up to 2^9-1 = 511 estimates (paper §7.2).
	db := testutil.TinyDB()
	o := New(db, cardest.Fixed{Value: 50})
	g := workload.NewGenerator(db, 45)
	q := g.Query(8)
	_, stats, err := o.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	if stats.EstimateCalls > 511 {
		t.Fatalf("estimate calls = %d > 511", stats.EstimateCalls)
	}
	if stats.EstimateCalls < 9 {
		t.Fatalf("estimate calls = %d, implausibly few", stats.EstimateCalls)
	}
}

func TestMaterializedLeafUsed(t *testing.T) {
	db := testutil.TinyDB()
	o := oracleOpt(db)
	g := workload.NewGenerator(db, 46)
	q := g.Query(3)
	// materialize subset {0,1} if connected, with a tiny buffer so the
	// optimizer should prefer resuming from it
	sub := query.NewBitSet().Set(0).Set(1)
	if !q.Connected(sub) {
		t.Skip("pair not connected in generated query")
	}
	// empty: zero cost, exact card 0
	mats := map[query.BitSet]*plan.Materialized{sub: {Tables: sub}}
	p, _, err := o.PlanWithMaterialized(q, mats)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	p.Walk(func(n *plan.Node) {
		if n.Op == plan.MatScan {
			found = true
		}
	})
	if !found {
		t.Fatal("optimizer ignored a free materialized intermediate")
	}
}

func TestDisconnectedQueryFails(t *testing.T) {
	db := testutil.TinyDB()
	s := db.Schema
	q := query.New(
		[]*catalog.Table{s.Table("kind_type"), s.Table("info_type")},
		nil, nil,
	)
	o := oracleOpt(db)
	if _, _, err := o.Plan(q); err == nil {
		t.Fatal("expected error for disconnected query")
	}
}

func TestIndexMatchesInterpolation(t *testing.T) {
	// without column statistics the geometric interpolation fallback applies
	noStats := query.Predicate{Col: &catalog.Column{}, Op: query.OpEQ}
	if got := indexMatches(noStats, 100, 10000, 1); got != 100 {
		t.Fatalf("k=1 should return estCard, got %v", got)
	}
	got := indexMatches(noStats, 100, 10000, 2)
	if got <= 100 || got >= 10000 {
		t.Fatalf("k=2 interpolation %v outside (100, 10000)", got)
	}
	if got := indexMatches(noStats, 20000, 10000, 2); got != 20000 {
		t.Fatalf("estCard >= rows should pass through, got %v", got)
	}
	// with statistics the driving predicate's own selectivity prices the
	// fetch, never below the combined estimate
	eq := query.Predicate{Col: &catalog.Column{NDV: 100}, Op: query.OpEQ}
	if got := indexMatches(eq, 50, 10000, 2); got != 100 {
		t.Fatalf("NDV-priced matches = %v, want 10000/100", got)
	}
	if got := indexMatches(eq, 500, 10000, 2); got != 500 {
		t.Fatalf("matches = %v, want clamp up to estCard 500", got)
	}
}

func TestPredSelectivityFromStats(t *testing.T) {
	c := &catalog.Column{Min: 1, Max: 100, NDV: 100}
	cases := []struct {
		p    query.Predicate
		want float64
	}{
		{query.Predicate{Col: c, Op: query.OpEQ, Operand: 7}, 0.01},
		{query.Predicate{Col: c, Op: query.OpIn, InSet: []int64{1, 2, 3, 4, 5}}, 0.05},
		{query.Predicate{Col: c, Op: query.OpLE, Operand: 50}, 0.5},
		{query.Predicate{Col: c, Op: query.OpGE, Operand: 51}, 0.5},
		{query.Predicate{Col: c, Op: query.OpLT, Operand: 1}, 0},
		{query.Predicate{Col: c, Op: query.OpGT, Operand: 100}, 0},
		{query.Predicate{Col: c, Op: query.OpNE, Operand: 5}, -1},
		{query.Predicate{Col: &catalog.Column{}, Op: query.OpEQ, Operand: 5}, -1},
		{query.Predicate{Col: &catalog.Column{}, Op: query.OpLT, Operand: 5}, -1},
	}
	for i, tc := range cases {
		if got := predSelectivity(tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Fatalf("case %d: selectivity = %v, want %v", i, got, tc.want)
		}
	}
}

func TestIndexPredPicksMostSelective(t *testing.T) {
	// Regression: bestScan used to compute the index-fetch size
	// loop-invariantly, so the index predicate always landed on the first
	// non-!= predicate regardless of selectivity.
	db := testutil.TinyDB()
	title := db.Schema.Table("title")
	year := title.Column("production_year")
	id := title.Column("id")
	preds := []query.Predicate{
		{Col: year, Op: query.OpGE, Operand: year.Min}, // matches every row
		{Col: id, Op: query.OpEQ, Operand: id.Min},     // matches one row
	}
	q := query.New([]*catalog.Table{title}, nil, preds)
	o := oracleOpt(db)
	leaf := o.bestScan(q, 0, 1)
	if leaf.Op != plan.IndexScan {
		t.Fatalf("scan op = %v, want IndexScan for a one-row equality", leaf.Op)
	}
	if leaf.IndexPred == nil || leaf.IndexPred.Col != id {
		t.Fatalf("index predicate on %v, want the equality on title.id", leaf.IndexPred)
	}
}

func TestCostModelOrdering(t *testing.T) {
	// hash join should beat rescan NLJ for large inputs
	if hashJoinCost(1e4, 1e4, 1e4) >= rescanNLJoinCost(1e4, 1e4, 1e4) {
		t.Fatal("hash join should be cheaper than quadratic NLJ at scale")
	}
	// index NLJ should win for tiny outer sides
	if indexNLJoinCost(3, 10) >= hashJoinCost(3, 1e5, 10) {
		t.Fatal("index NLJ should win with a tiny outer and huge inner")
	}
	// seq scan of everything vs index fetch of a few rows
	if indexScanCost(10) >= seqScanCost(1e5) {
		t.Fatal("index scan should win for selective predicates")
	}
}

func TestOptimizerGuardsBadEstimates(t *testing.T) {
	// NaN/Inf/negative estimates must be clamped, never poison the DP.
	db := testutil.TinyDB()
	bad := cardest.FuncEstimator{Label: "nan", Fn: func(q *query.Query, m query.BitSet) float64 {
		switch m.Count() % 3 {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		default:
			return -5
		}
	}}
	o := New(db, bad)
	g := workload.NewGenerator(db, 47)
	q := g.Query(3)
	p, _, err := o.Plan(q)
	if err != nil {
		t.Fatal(err)
	}
	p.Walk(func(n *plan.Node) {
		if math.IsNaN(n.EstCard) || math.IsInf(n.EstCard, 0) || n.EstCard < 0 {
			t.Fatalf("unclamped estimate %v survived", n.EstCard)
		}
		if math.IsNaN(n.EstCost) || math.IsInf(n.EstCost, 0) {
			t.Fatalf("cost %v poisoned by bad estimates", n.EstCost)
		}
	})
	// and the plan still executes correctly
	got, err := exec.Run(&exec.Ctx{DB: db, Q: q}, p)
	if err != nil {
		t.Fatal(err)
	}
	want, err := exec.RunCollect(&exec.Ctx{DB: db, Q: q}, exec.CanonicalPlan(q, q.AllTablesMask()))
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("count %d != %d", got, want)
	}
}
