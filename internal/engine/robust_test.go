package engine

import (
	"context"
	"errors"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// cancelOnReplan cancels the query's context from inside the first
// re-planning pass: the engine only calls the base estimator again after a
// trigger incremented the controller's Reopts, so any call observed with
// Reopts > 0 is mid-replan.
type cancelOnReplan struct {
	cardest.Estimator
	ctrl   **reopt.Controller
	cancel context.CancelFunc
}

func (c *cancelOnReplan) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	if ctrl := *c.ctrl; ctrl != nil && ctrl.Reopts > 0 {
		c.cancel()
	}
	return c.Estimator.EstimateSubset(q, mask)
}

func TestCancelDuringReplanReleasesMaterialized(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 301)
	e := New(db)

	var captured *reopt.Controller
	testHookController = func(c *reopt.Controller) { captured = c }
	defer func() { testHookController = nil }()

	// A Fixed(1) estimator underestimates every join, so the first
	// materialization checkpoint triggers re-optimization.
	done := false
	for i := 0; i < 20 && !done; i++ {
		captured = nil
		q := g.Query(3)
		ctx, cancel := context.WithCancel(context.Background())
		est := &cancelOnReplan{
			Estimator: cardest.Fixed{Value: 1, Label: "always-one"},
			ctrl:      &captured,
			cancel:    cancel,
		}
		_, err := e.ExecuteContext(ctx, q, Config{
			Estimator: est,
			Refiner:   reopt.OverlayRefiner{Base: est},
			Policy:    reopt.Policy{QErrThreshold: 1.1, MaxReopts: 3},
		})
		cancel()
		if captured == nil {
			t.Fatal("controller hook never fired")
		}
		if captured.Reopts == 0 {
			continue // this query never triggered; try the next one
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("query %d: err = %v, want context.Canceled", i, err)
		}
		// The failure path must have dropped every buffered intermediate.
		if n := len(captured.Materialized()); n != 0 {
			t.Fatalf("query %d: %d materialized intermediates survived cancellation", i, n)
		}
		if captured.ExecutedSubs() != nil {
			t.Fatalf("query %d: controller still holds execution state", i)
		}
		done = true
	}
	if !done {
		t.Fatal("no query triggered re-optimization; test exercised nothing")
	}
}

func TestPreCancelledContextRejectedUpfront(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 311)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := New(db).ExecuteContext(ctx, g.Query(2), Config{
		Estimator: cardest.Fixed{Value: 1, Label: "always-one"},
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}
