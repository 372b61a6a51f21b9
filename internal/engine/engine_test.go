package engine

import (
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/sqlparse"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

var (
	fixOnce    sync.Once
	fixDB      *storage.Database
	fixRefiner *core.Refiner
	fixLPCEI   *core.LPCEI
	// what training another refiner kind over the fixture takes
	fixRefinerCfg core.RefinerConfig
	fixSamples    []core.Sample
	fixLogMax     float64
)

// LPCE-R and the exact-cardinality overlay re-plan through one Config field.
var (
	_ Refiner = (*core.Refiner)(nil)
	_ Refiner = reopt.OverlayRefiner{}
)

func fixture(t *testing.T) (*storage.Database, *core.LPCEI, *core.Refiner) {
	t.Helper()
	fixOnce.Do(func() {
		fixDB = testutil.TinyDB()
		enc := encode.NewEncoder(fixDB.Schema)
		g := workload.NewGenerator(fixDB, 111)
		queries := g.QueriesRange(50, 2, 5)
		samples, _ := core.CollectSamples(fixDB, histogram.NewEstimator(fixDB), queries, 50_000_000)
		logMax := core.MaxLogCard(samples)
		student := core.TrainConfig{Hidden: 8, OutWidth: 8, Epochs: 3, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 1}
		fixLPCEI = core.TrainLPCEI(core.LPCEIConfig{
			Teacher: core.TrainConfig{Hidden: 16, OutWidth: 16, Epochs: 5, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 1},
			Student: student,
		}, enc, samples, logMax)
		// LPCE-R at LPCE-I's width, as it is served: the student is the
		// content module.
		fixRefinerCfg = core.RefinerConfig{
			Kind: core.RefinerFull, Base: student, AdjustEpochs: 3, PrefixesPerSample: 2,
		}
		fixSamples, fixLogMax = samples, logMax
		fixRefiner = core.TrainRefiner(fixRefinerCfg, fixLPCEI.Model,
			core.TrainTreeModel(student, enc, samples, logMax, fixDB), enc, fixDB, samples, logMax)
	})
	return fixDB, fixLPCEI, fixRefiner
}

func trueCount(t *testing.T, db *storage.Database, q *query.Query) int {
	t.Helper()
	want, err := exec.RunCollect(&exec.Ctx{DB: db, Q: q}, exec.CanonicalPlan(q, q.AllTablesMask()))
	if err != nil {
		t.Fatal(err)
	}
	return want
}

func TestExecuteWithHistogram(t *testing.T) {
	db, _, _ := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 112)
	for i := 0; i < 8; i++ {
		q := g.Query(2 + i%3)
		res, err := e.Execute(q, Config{Estimator: histogram.NewEstimator(db)})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != trueCount(t, db, q) {
			t.Fatalf("wrong count for %s", q.SQL())
		}
		if res.Reopts != 0 {
			t.Fatal("no refiner configured, reopts must be 0")
		}
		if res.PlanTime < 0 || res.InferTime < 0 || res.ExecTime <= 0 {
			t.Fatalf("bad time decomposition: %+v", res)
		}
		if res.Total() != res.PlanTime+res.InferTime+res.ReoptTime+res.ExecTime {
			t.Fatal("Total() mismatch")
		}
		if res.EstimateCalls == 0 {
			t.Fatal("no estimate calls recorded")
		}
	}
}

func TestExecuteWithLPCEI(t *testing.T) {
	db, lpcei, _ := fixture(t)
	e := New(db)
	est := &core.TreeEstimator{Label: "lpce-i", Model: lpcei.Model, Enc: lpcei.Enc}
	g := workload.NewGenerator(db, 113)
	for i := 0; i < 5; i++ {
		q := g.Query(3)
		res, err := e.Execute(q, Config{Estimator: est})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != trueCount(t, db, q) {
			t.Fatalf("wrong count for %s", q.SQL())
		}
		if res.InferTime <= 0 {
			t.Fatal("learned estimator should record inference time")
		}
	}
}

func TestReoptimizationPreservesCorrectness(t *testing.T) {
	// Force constant mis-estimates so checkpoints trigger, and verify the
	// re-optimized execution still returns the exact count.
	db, _, refiner := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 114)
	triggered := 0
	for i := 0; i < 10; i++ {
		q := g.Query(3 + i%2)
		res, err := e.Execute(q, Config{
			Estimator: cardest.Fixed{Value: 2, Label: "bad"},
			Refiner:   refiner,
			Policy:    reopt.Policy{QErrThreshold: 10, MaxReopts: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != trueCount(t, db, q) {
			t.Fatalf("re-optimized count wrong for %s: got %d", q.SQL(), res.Count)
		}
		if res.Reopts > 0 {
			triggered++
			if res.ReoptTime <= 0 {
				t.Fatal("reopts happened but ReoptTime is zero")
			}
		}
	}
	if triggered == 0 {
		t.Fatal("constant estimate of 2 should have triggered at least one re-optimization")
	}
}

func TestReoptRespectsMaxLimit(t *testing.T) {
	db, _, refiner := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 115)
	for i := 0; i < 6; i++ {
		q := g.Query(4)
		res, err := e.Execute(q, Config{
			Estimator: cardest.Fixed{Value: 2, Label: "bad"},
			Refiner:   refiner,
			Policy:    reopt.Policy{QErrThreshold: 5, MaxReopts: 2},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reopts > 2 {
			t.Fatalf("reopts = %d exceeds limit", res.Reopts)
		}
	}
}

func TestBudgetTimeout(t *testing.T) {
	db, _, _ := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 116)
	q := g.Query(4)
	res, err := e.Execute(q, Config{Estimator: histogram.NewEstimator(db), Budget: 50})
	if err != nil {
		t.Fatal(err)
	}
	if !res.TimedOut {
		t.Fatal("tiny budget should time out")
	}
}

func TestDefaultPolicyApplied(t *testing.T) {
	db, _, refiner := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 117)
	q := g.Query(2)
	// zero policy should be replaced by the paper defaults, not trigger on
	// every materialization (threshold 0 would always fire)
	res, err := e.Execute(q, Config{Estimator: histogram.NewEstimator(db), Refiner: refiner})
	if err != nil {
		t.Fatal(err)
	}
	if res.Count != trueCount(t, db, q) {
		t.Fatal("wrong count")
	}
}

func TestLPCERReducesBadPlanWork(t *testing.T) {
	// The headline claim at micro scale: with a terrible initial estimator,
	// enabling LPCE-R re-optimization should not increase total executor
	// work across a workload, and should usually decrease it. Compared in
	// deterministic executor work units (Result.ExecWork) rather than wall
	// time, which varies with machine load.
	db, _, refiner := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 118)

	var withoutWork, withWork int64
	for i := 0; i < 8; i++ {
		q := g.Query(4)
		bad := cardest.Fixed{Value: 2, Label: "bad"}
		r1, err := e.Execute(q, Config{Estimator: bad})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e.Execute(q, Config{
			Estimator: bad,
			Refiner:   refiner,
			Policy:    reopt.Policy{QErrThreshold: 10, MaxReopts: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Count != r2.Count {
			t.Fatalf("counts diverge: %d vs %d", r1.Count, r2.Count)
		}
		if r1.ExecWork <= 0 || r2.ExecWork <= 0 {
			t.Fatalf("work accounting missing: %d vs %d", r1.ExecWork, r2.ExecWork)
		}
		withoutWork += r1.ExecWork
		withWork += r2.ExecWork
	}
	// Allow some slack: re-optimized executions replay materialized
	// intermediates, so per-query work can exceed the uninterrupted run's;
	// the guard is against catastrophic regressions.
	if withWork > withoutWork*3 {
		t.Fatalf("re-optimization tripled total work: %d vs %d units", withWork, withoutWork)
	}
}

// TestIndexScanEdgePredicatesSQL runs predicates the histogram plans as
// index scans through the whole engine: a strict bound past the int64
// limits matches no row, and a repeated IN value counts its row once.
func TestIndexScanEdgePredicatesSQL(t *testing.T) {
	db := testutil.TinyDB()
	e := New(db)
	cases := []struct {
		sql  string
		want int
	}{
		{"SELECT COUNT(*) FROM title WHERE title.production_year < -9223372036854775808", 0},
		{"SELECT COUNT(*) FROM title WHERE title.production_year > 9223372036854775807", 0},
		{"SELECT COUNT(*) FROM title WHERE title.id IN (5, 5, 7)", 2},
	}
	for _, tc := range cases {
		q, err := sqlparse.Parse(db.Schema, tc.sql)
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		res, err := e.Execute(q, Config{Estimator: histogram.NewEstimator(db)})
		if err != nil {
			t.Fatalf("%s: %v", tc.sql, err)
		}
		if res.FinalPlan.Op != plan.IndexScan {
			t.Fatalf("%s: planned %v, want an index scan", tc.sql, res.FinalPlan.Op)
		}
		if res.Count != tc.want {
			t.Errorf("%s: count %d, want %d", tc.sql, res.Count, tc.want)
		}
	}
}
