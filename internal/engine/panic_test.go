package engine

import (
	"errors"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/workload"
)

// panicEstimator panics on every estimate.
var panicEstimator = cardest.FuncEstimator{Label: "panics", Fn: func(*query.Query, query.BitSet) float64 {
	panic("estimator exploded")
}}

// panicOp panics on its first batch.
type panicOp struct{ exec.BatchOperator }

func (panicOp) NextBatch(*exec.Ctx) (*exec.Batch, error) { panic("operator exploded") }

// wantPanicError fails the test unless err is a *PanicError carrying a
// stack and a panic value that mentions want.
func wantPanicError(t *testing.T, err error, want string) {
	t.Helper()
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PanicError", err)
	}
	if !strings.Contains(pe.Error(), want) || len(pe.Stack) == 0 {
		t.Fatalf("PanicError %q (stack %d bytes), want value %q and a stack", pe.Error(), len(pe.Stack), want)
	}
}

// TestPanicFailsOneQueryTyped: a panic in the estimator, the executor or the
// refiner fails its query with *PanicError through the same release path as
// any other error, and the next query on the same engine succeeds.
func TestPanicFailsOneQueryTyped(t *testing.T) {
	db, _, refiner := fixture(t)
	e := New(db)
	hist := histogram.NewEstimator(db)
	g := workload.NewGenerator(db, 401)

	// A refiner missing its refine module panics inside the first replan.
	broken := *refiner
	broken.Refine = nil

	var captured *reopt.Controller
	testHookController = func(c *reopt.Controller) { captured = c }
	defer func() { testHookController = nil }()

	cases := []struct {
		name string
		cfg  Config
		want string
		ctrl bool // the panic comes after the controller was created
	}{
		{"estimator", Config{Estimator: panicEstimator, Refiner: reopt.OverlayRefiner{Base: panicEstimator}}, "estimator exploded", false},
		{"executor", Config{
			Estimator: hist, Refiner: reopt.OverlayRefiner{Base: hist},
			ExecWrap: func(_ *exec.Ctx, op exec.BatchOperator, _ *plan.Node) exec.BatchOperator { return panicOp{op} },
		}, "operator exploded", true},
		// A Fixed(1) estimator underestimates every join, so the first
		// materialization checkpoint triggers re-optimization.
		{"refiner", Config{
			Estimator: cardest.Fixed{Value: 1, Label: "always-one"}, Refiner: &broken,
			Policy: reopt.Policy{QErrThreshold: 1.1, MaxReopts: 3},
		}, "nil pointer", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := g.Query(4)
			captured = nil
			_, err := e.Execute(q, tc.cfg)
			wantPanicError(t, err, tc.want)
			switch {
			case !tc.ctrl:
				if captured != nil {
					t.Fatal("the initial plan search panicked, yet a controller was created")
				}
			case captured == nil:
				t.Fatal("controller hook never fired")
			case tc.name == "refiner" && captured.Reopts == 0:
				t.Fatal("no checkpoint triggered; the refiner was never called")
			case len(captured.Materialized()) != 0 || captured.ExecutedSubs() != nil:
				t.Fatal("the panicked query's controller was not released")
			}
			res, err := e.Execute(q, Config{Estimator: hist, Refiner: refiner})
			if err != nil {
				t.Fatalf("next query on the same engine: %v", err)
			}
			if res.Count != trueCount(t, db, q) {
				t.Fatalf("next query counted %d, want %d", res.Count, trueCount(t, db, q))
			}
		})
	}
}

// TestExplainPanicTyped: a panicking estimator fails EXPLAIN with
// *PanicError, and the next EXPLAIN on the same engine succeeds.
func TestExplainPanicTyped(t *testing.T) {
	db, _, _ := fixture(t)
	e := New(db)
	q := workload.NewGenerator(db, 409).Query(3)
	_, err := e.Explain(q, panicEstimator)
	wantPanicError(t, err, "estimator exploded")
	if _, err := e.Explain(q, histogram.NewEstimator(db)); err != nil {
		t.Fatalf("next EXPLAIN on the same engine: %v", err)
	}
}
