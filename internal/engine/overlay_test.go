package engine

import (
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/workload"
)

// TestOverlayRefinerCorrectness exercises the §8 extension: re-optimization
// without a learned refiner, using exact-cardinality overlays on the base
// estimator. Results must match the uninterrupted execution exactly.
func TestOverlayRefinerCorrectness(t *testing.T) {
	db, _, _ := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 141)
	triggered := 0
	for i := 0; i < 10; i++ {
		q := g.Query(3 + i%2)
		bad := cardest.Fixed{Value: 2, Label: "bad"}
		res, err := e.Execute(q, Config{
			Estimator: bad,
			Refiner:   reopt.OverlayRefiner{Base: bad},
			Policy:    reopt.Policy{QErrThreshold: 10, MaxReopts: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != trueCount(t, db, q) {
			t.Fatalf("overlay reopt changed the result for %s", q.SQL())
		}
		if res.Reopts > 0 {
			triggered++
		}
	}
	if triggered == 0 {
		t.Fatal("overlay re-optimization never triggered with constant estimates")
	}
}

// TestOverlayRefinerWithHistogram runs the extension on the engine's own
// histogram estimator — "progressive estimation for traditional
// estimators".
func TestOverlayRefinerWithHistogram(t *testing.T) {
	db, _, _ := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 142)
	for i := 0; i < 5; i++ {
		q := g.Query(4)
		hist := histogram.NewEstimator(db)
		res, err := e.Execute(q, Config{
			Estimator: hist,
			Refiner:   reopt.OverlayRefiner{Base: hist},
			Policy:    reopt.Policy{QErrThreshold: 20, MaxReopts: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != trueCount(t, db, q) {
			t.Fatalf("histogram overlay reopt changed the result")
		}
	}
}

// TestCostAwarePolicyEndToEnd verifies the cost-aware trigger suppresses
// late re-optimizations without breaking correctness.
func TestCostAwarePolicyEndToEnd(t *testing.T) {
	db, _, refiner := fixture(t)
	e := New(db)
	g := workload.NewGenerator(db, 143)
	var plainReopts, costAwareReopts int
	for i := 0; i < 8; i++ {
		q := g.Query(4)
		bad := cardest.Fixed{Value: 2, Label: "bad"}
		r1, err := e.Execute(q, Config{
			Estimator: bad, Refiner: refiner,
			Policy: reopt.Policy{QErrThreshold: 10, MaxReopts: 3},
		})
		if err != nil {
			t.Fatal(err)
		}
		r2, err := e.Execute(q, Config{
			Estimator: bad, Refiner: refiner,
			Policy: reopt.Policy{QErrThreshold: 10, MaxReopts: 3, MinRemainingCostFrac: 0.3},
		})
		if err != nil {
			t.Fatal(err)
		}
		if r1.Count != r2.Count {
			t.Fatalf("cost-aware policy changed the result: %d vs %d", r1.Count, r2.Count)
		}
		plainReopts += r1.Reopts
		costAwareReopts += r2.Reopts
	}
	if costAwareReopts > plainReopts {
		t.Fatalf("cost-aware policy (%d reopts) should not trigger more than plain (%d)",
			costAwareReopts, plainReopts)
	}
}
