package fault_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/fault"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

func TestInjectorDeterministicAndRateAccurate(t *testing.T) {
	in := fault.Injector{Seed: 7, Rate: 0.1}
	hits := 0
	for key := uint64(0); key < 20_000; key++ {
		a := in.Hit("site", key)
		if a != in.Hit("site", key) {
			t.Fatalf("key %d: nondeterministic decision", key)
		}
		if a {
			hits++
		}
	}
	if rate := float64(hits) / 20_000; rate < 0.08 || rate > 0.12 {
		t.Fatalf("hit rate %.3f far from configured 0.1", rate)
	}
	if (fault.Injector{}).Hit("site", 1) {
		t.Fatal("zero-value injector must never fire")
	}
	// Different sites and seeds decide independently.
	same := 0
	for key := uint64(0); key < 20_000; key++ {
		if in.Hit("site", key) && in.Hit("other", key) {
			same++
		}
	}
	if same > 600 { // ~0.01 expected → 200; 600 allows wide slack
		t.Fatalf("sites correlate: %d joint hits", same)
	}
}

// chaosWorkload builds the 200-query parallel workload of the acceptance
// criteria over the tiny database.
func chaosWorkload(tb testing.TB) []*query.Query {
	tb.Helper()
	gen := workload.NewGenerator(testutil.TinyDB(), 11)
	return gen.QueriesRange(200, 2, 4)
}

// TestChaosPoolSurvivesEstimatorAndOperatorFaults is the acceptance
// scenario: with estimator panic/garbage/latency faults injected at ~10% of
// calls and operator errors on a slice of the queries, a 200-query parallel
// workload completes end to end — a query whose estimator panicked fails
// alone with *engine.PanicError, other degraded queries return their typed
// errors, and every query that completes returns the fault-free count:
// garbage estimates are clamped by the optimizer and may change the plan,
// never the answer.
func TestChaosPoolSurvivesEstimatorAndOperatorFaults(t *testing.T) {
	db := testutil.TinyDB()
	queries := chaosWorkload(t)
	hist := histogram.NewEstimator(db)
	eng := engine.New(db)

	// Fault-free baseline, executed in parallel.
	baseline := make([]int, len(queries))
	errs := workload.RunEach(context.Background(), len(queries), 8, func(i int) error {
		res, err := eng.Execute(queries[i], engine.Config{Estimator: hist, Refiner: reopt.OverlayRefiner{Base: hist}})
		baseline[i] = res.Count
		return err
	})
	for i, err := range errs {
		if err != nil {
			t.Fatalf("baseline query %d failed: %v", i, err)
		}
	}

	// Chaos run: 4% panics + 4% garbage + 2% latency spikes on estimator
	// calls (10% total), operator errors on ~4% of plan nodes.
	fest := &fault.Estimator{
		Inner:        hist,
		Panic:        fault.Injector{Seed: 101, Rate: 0.04},
		Garbage:      fault.Injector{Seed: 102, Rate: 0.04},
		Latency:      fault.Injector{Seed: 103, Rate: 0.02},
		LatencyDelay: 100 * time.Microsecond,
	}
	ops := &fault.Ops{Err: fault.Injector{Seed: 104, Rate: 0.04}, AtRow: 2}
	cfg := engine.Config{
		Estimator: fest,
		Refiner:   reopt.OverlayRefiner{Base: fest},
		ExecWrap:  ops.Wrap,
		Limits:    engine.Limits{MaxMatRows: 2_000_000},
	}

	counts := make([]int, len(queries))
	errs = workload.RunEach(context.Background(), len(queries), 8, func(i int) error {
		res, err := eng.Execute(queries[i], cfg)
		counts[i] = res.Count
		return err
	})

	ok, panicked, failed := 0, 0, 0
	for i, err := range errs {
		var pe *engine.PanicError
		var re *exec.ResourceError
		switch {
		case err == nil:
			ok++
			if counts[i] != baseline[i] {
				t.Errorf("query %d: chaos count %d != baseline %d", i, counts[i], baseline[i])
			}
		case errors.As(err, &pe):
			panicked++
		case errors.Is(err, fault.ErrInjected) || errors.As(err, &re):
			failed++
		default:
			t.Errorf("query %d: untyped chaos error %v", i, err)
		}
	}

	// The chaos must have been real, and survived.
	if fest.Panics.Load() == 0 || fest.Garbages.Load() == 0 || fest.Latencies.Load() == 0 {
		t.Fatalf("injection never fired: %d panics, %d garbage, %d latency",
			fest.Panics.Load(), fest.Garbages.Load(), fest.Latencies.Load())
	}
	// A panic ends its query, so each panicked query saw exactly one.
	if int64(panicked) != fest.Panics.Load() {
		t.Fatalf("%d queries failed with *engine.PanicError, %d panics injected", panicked, fest.Panics.Load())
	}
	if ops.Errs.Load() == 0 || failed == 0 {
		t.Fatalf("no operator faults surfaced (injected %d, failed %d)", ops.Errs.Load(), failed)
	}
	if ok == 0 {
		t.Fatal("every query degraded; chaos rate far above configuration")
	}
	t.Logf("chaos: %d ok, %d panicked, %d failed of %d", ok, panicked, failed, len(queries))
}

// opRows wraps every operator in a row counter and records, per operator,
// whether the injector would select it and how many rows it produced.
type opRows struct {
	sel   *fault.Ops
	stats []*opStat
}

type opStat struct {
	selected bool
	rows     int64
}

func (r *opRows) wrap(ctx *exec.Ctx, op exec.BatchOperator, n *plan.Node) exec.BatchOperator {
	st := &opStat{selected: r.sel.Wrap(ctx, op, n) != op}
	r.stats = append(r.stats, st)
	return rowCounter{op, st}
}

// faults reports whether a selected operator reached the fault row.
func (r *opRows) faults(atRow int64) bool {
	for _, st := range r.stats {
		if st.selected && st.rows >= atRow {
			return true
		}
	}
	return false
}

type rowCounter struct {
	exec.BatchOperator
	st *opStat
}

func (c rowCounter) NextBatch(ctx *exec.Ctx) (*exec.Batch, error) {
	b, err := c.BatchOperator.NextBatch(ctx)
	if b != nil {
		c.st.rows += int64(b.Len())
	}
	return b, err
}

// TestChaosOpFaultsMatchFaultFreeRun runs the chaos workload with operator
// faults and holds every query to its fault-free run. Fault decisions are a
// pure hash of (query fingerprint, plan-node subset), and a fault fires in
// the batch holding the operator's AtRow-th row, so the fault-free run
// predicts the outcome: a query fails with ErrInjected exactly when some
// selected operator produced at least AtRow rows there, and otherwise
// returns the fault-free count.
func TestChaosOpFaultsMatchFaultFreeRun(t *testing.T) {
	db := testutil.TinyDB()
	queries := chaosWorkload(t)
	hist := histogram.NewEstimator(db)
	eng := engine.New(db)
	const atRow = 2
	inj := fault.Injector{Seed: 104, Rate: 0.04}
	ops := &fault.Ops{Err: inj, AtRow: atRow}
	limits := engine.Limits{MaxMatRows: 2_000_000}

	faulted, completed := 0, 0
	for i, q := range queries {
		probe := &opRows{sel: &fault.Ops{Err: inj, AtRow: atRow}}
		clean, err := eng.Execute(q, engine.Config{Estimator: hist, ExecWrap: probe.wrap, Limits: limits})
		if err != nil {
			t.Fatalf("query %d: fault-free run failed: %v", i, err)
		}
		res, err := eng.Execute(q, engine.Config{Estimator: hist, ExecWrap: ops.Wrap, Limits: limits})
		switch want := probe.faults(atRow); {
		case want && !errors.Is(err, fault.ErrInjected):
			t.Errorf("query %d: a selected operator reached row %d, but got %v", i, atRow, err)
		case !want && err != nil:
			t.Errorf("query %d: no selected operator reached row %d, but got %v", i, atRow, err)
		case want:
			faulted++
		case res.Count != clean.Count:
			t.Errorf("query %d: count %d, fault-free %d", i, res.Count, clean.Count)
		default:
			completed++
		}
	}
	if faulted == 0 || completed == 0 {
		t.Fatalf("want a mix of faulted and clean queries, got %d/%d", faulted, completed)
	}
	if ops.Errs.Load() != int64(faulted) {
		t.Fatalf("%d injected errors fired for %d faulted queries", ops.Errs.Load(), faulted)
	}
}

// TestChaosUnguardedPoolStillSurvives runs raw estimator panics through
// the worker pool with nothing wrapped around the estimator: the engine
// recovers each one before RunEach would, so every panicked query reports
// the engine's typed *engine.PanicError and the other queries complete.
func TestChaosUnguardedPoolStillSurvives(t *testing.T) {
	db := testutil.TinyDB()
	queries := chaosWorkload(t)
	hist := histogram.NewEstimator(db)
	fest := &fault.Estimator{Inner: hist, Panic: fault.Injector{Seed: 55, Rate: 0.02}}
	eng := engine.New(db)

	errs := workload.RunEach(context.Background(), len(queries), 8, func(i int) error {
		_, err := eng.Execute(queries[i], engine.Config{Estimator: fest})
		return err
	})
	panicked, completed := 0, 0
	for i, err := range errs {
		switch {
		case err == nil:
			completed++
		default:
			var pe *engine.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("query %d: %v, want *engine.PanicError", i, err)
			}
			panicked++
		}
	}
	if panicked == 0 || completed == 0 {
		t.Fatalf("want a mix of panics and completions, got %d/%d", panicked, completed)
	}
}

// TestDeadlineCancellation is the acceptance deadline scenario: a query
// carrying a 1ms deadline is cancelled with context.DeadlineExceeded,
// returns within the deadline plus a grace period, and leaks no
// goroutines. Injected operator stalls make the query reliably slower than
// the deadline.
func TestDeadlineCancellation(t *testing.T) {
	db := testutil.TinyDB()
	gen := workload.NewGenerator(db, 19)
	q := gen.Query(4)
	hist := histogram.NewEstimator(db)
	// Every operator stalls 5ms at its first row: execution cannot finish
	// inside 1ms no matter how fast the machine is.
	ops := &fault.Ops{Stall: fault.Injector{Seed: 1, Rate: 1}, StallFor: 5 * time.Millisecond}
	cfg := engine.Config{Estimator: hist, ExecWrap: ops.Wrap}

	before := runtime.NumGoroutine()
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := engine.New(db).ExecuteContext(ctx, q, cfg)
	elapsed := time.Since(start)

	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want context.DeadlineExceeded", err)
	}
	// Grace period: the deadline (1ms) + one stall (5ms) + a scheduling
	// cushion. A second is far beyond anything cooperative cancellation
	// should need on a loaded CI machine.
	if elapsed > time.Second {
		t.Fatalf("cancellation took %s", elapsed)
	}
	// Goroutine-leak check: the count must return to the pre-query level.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestDeadlineSmokeParallel cancels a whole parallel workload by deadline:
// the pool returns promptly with context.DeadlineExceeded and every
// started query reports a typed error.
func TestDeadlineSmokeParallel(t *testing.T) {
	db := testutil.TinyDB()
	queries := chaosWorkload(t)
	hist := histogram.NewEstimator(db)
	ops := &fault.Ops{Stall: fault.Injector{Seed: 2, Rate: 1}, StallFor: 2 * time.Millisecond}
	eng := engine.New(db)

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	errs := workload.RunEach(ctx, len(queries), 4, func(i int) error {
		_, err := eng.ExecuteContext(ctx, queries[i], engine.Config{Estimator: hist, ExecWrap: ops.Wrap})
		return err
	})
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("pool took %s to honour a 20ms deadline", elapsed)
	}
	cancelled := 0
	for i, err := range errs {
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("query %d: %v, want DeadlineExceeded", i, err)
			}
			cancelled++
		}
	}
	if cancelled == 0 {
		t.Fatal("deadline cancelled nothing; stalls did not slow the workload")
	}
}

// TestMaterializationBudget proves the MaxMatRows budget fails a single
// query with a typed *exec.ResourceError instead of materializing unbounded
// intermediates.
func TestMaterializationBudget(t *testing.T) {
	db := testutil.TinyDB()
	gen := workload.NewGenerator(db, 23)
	hist := histogram.NewEstimator(db)
	eng := engine.New(db)
	var hit bool
	for i := 0; i < 20 && !hit; i++ {
		q := gen.Query(4)
		_, err := eng.Execute(q, engine.Config{Estimator: hist, Limits: engine.Limits{MaxMatRows: 10}})
		if err != nil {
			var re *exec.ResourceError
			if !errors.As(err, &re) {
				t.Fatalf("query %d: %v, want *exec.ResourceError", i, err)
			}
			if re.Resource != "materialized-rows" || re.Limit != 10 || re.Used != 11 {
				t.Fatalf("unexpected resource error %+v", re)
			}
			hit = true
		}
	}
	if !hit {
		t.Fatal("no query tripped a 10-row materialization budget")
	}
}
