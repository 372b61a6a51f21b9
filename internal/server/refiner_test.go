package server

import (
	"context"
	"errors"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/sqlparse"
)

// TestQueriesWithoutRefinerNeverReoptimize: a serving set without a refiner
// (LPCE-I only) and the shed rung of an LPCE-R server both run queries with
// no re-optimization at all, even where a checkpoint's q-error is far past
// the trigger threshold. A nil refiner that reached the engine as a non-nil
// interface would re-plan through it and panic.
func TestQueriesWithoutRefinerNeverReoptimize(t *testing.T) {
	db, enc, set := fixture(t)
	sql := testSQL(2)
	q, err := sqlparse.Parse(db.Schema, sql)
	if err != nil {
		t.Fatal(err)
	}
	eng := engine.New(db)
	want, err := eng.Execute(q, engine.Config{Estimator: histogram.NewEstimator(db)})
	if err != nil {
		t.Fatal(err)
	}
	// Constant estimates of 3 miss this query's checkpoints by more than the
	// default threshold of 50: with any refiner, it re-optimizes.
	bad := cardest.Fixed{Value: 3, Label: "three"}
	if res, err := eng.Execute(q, engine.Config{Estimator: bad, Refiner: reopt.OverlayRefiner{Base: bad}}); err != nil || res.Reopts == 0 {
		t.Fatalf("with a refiner: reopts=%d err=%v, want a re-optimization", res.Reopts, err)
	}

	check := func(t *testing.T, s *Server) *QueryResult {
		t.Helper()
		res, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: sql})
		var pe *engine.PanicError
		if errors.As(err, &pe) {
			t.Fatalf("query panicked: %v", pe)
		}
		if err != nil {
			t.Fatal(err)
		}
		if res.Count != want.Count || res.Reopts != 0 {
			t.Fatalf("count=%d reopts=%d, want count %d and no re-optimization", res.Count, res.Reopts, want.Count)
		}
		return res
	}

	t.Run("lpce", func(t *testing.T) {
		cfg := histConfig(db)
		cfg.Enc, cfg.Mode, cfg.Models = enc, ModeLPCE, set
		s := mustServer(t, cfg)
		s.installEstimator("three", bad, nil)
		check(t, s)
	})

	t.Run("lpce-r shed rung", func(t *testing.T) {
		cfg := histConfig(db)
		cfg.Enc, cfg.Mode, cfg.Models = enc, ModeLPCER, set
		s := mustServer(t, cfg)
		s.health.force(StateOverloaded)
		if res := check(t, s); !res.FallbackEstimator {
			t.Fatal("overloaded query did not run on the shed rung")
		}
		// The shed rung runs no re-optimization controller, so no checkpoint
		// is even evaluated.
		traces := s.tenants["alpha"].obs.Traces()
		if len(traces) == 0 {
			t.Fatal("no query trace recorded")
		}
		if evs := traces[len(traces)-1].Events; len(evs) != 0 {
			t.Fatalf("shed-rung query evaluated %d re-optimization checkpoints, want none", len(evs))
		}
	})
}

// TestReoptDecidedAtAdmission: whether a query may re-optimize is fixed
// with its rung when it is admitted. A query admitted while healthy keeps
// its refiner even if the server degrades before its first checkpoint, and
// one admitted while degraded runs without it. The constant estimate of 3
// misses the query's checkpoints far past the trigger threshold.
func TestReoptDecidedAtAdmission(t *testing.T) {
	db, enc, set := fixture(t)
	cfg := histConfig(db)
	cfg.Enc, cfg.Mode, cfg.Models = enc, ModeLPCER, set
	s := mustServer(t, cfg)
	s.installEstimator("three", cardest.Fixed{Value: 3, Label: "three"}, set.Refiner)
	run := func() *QueryResult {
		t.Helper()
		res, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(2)})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	// Operators are built after admission and before any checkpoint.
	s.execWrap = func(_ *exec.Ctx, op exec.BatchOperator, _ *plan.Node) exec.BatchOperator {
		s.health.force(StateDegraded)
		return op
	}
	if res := run(); res.HealthState != "healthy" || res.Reopts < 1 {
		t.Fatalf("admitted healthy, degraded mid-query: state=%s reopts=%d, want healthy with a re-optimization",
			res.HealthState, res.Reopts)
	}

	s.execWrap = nil
	if res := run(); res.HealthState != "degraded" || res.Reopts != 0 {
		t.Fatalf("admitted degraded: state=%s reopts=%d, want degraded with no re-optimization", res.HealthState, res.Reopts)
	}
	s.health.force(StateHealthy)
}
