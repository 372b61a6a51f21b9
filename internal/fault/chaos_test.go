package fault_test

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/fault"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
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
// workload completes end to end — degraded queries return typed errors, the
// guard's breaker falls back to the histogram baseline, and every
// un-faulted query returns a result byte-identical to the fault-free run.
func TestChaosPoolSurvivesEstimatorAndOperatorFaults(t *testing.T) {
	db := testutil.TinyDB()
	queries := chaosWorkload(t)
	hist := histogram.NewEstimator(db)
	eng := engine.New(db)

	// Fault-free baseline, executed in parallel.
	baseline := make([]int, len(queries))
	errs := workload.RunEach(context.Background(), len(queries), 8, func(i int) error {
		res, err := eng.Execute(queries[i], engine.Config{Estimator: hist, OverlayReopt: true})
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
	reg := obs.NewRegistry()
	guard := cardest.NewGuard(fest, cardest.GuardConfig{
		Fallback:      hist,
		Bound:         cardest.CrossProductBound(db),
		LatencyBudget: 50 * time.Millisecond,
		TripAfter:     2,
		Cooldown:      16,
		Registry:      reg,
	})
	ops := &fault.Ops{Err: fault.Injector{Seed: 104, Rate: 0.04}, AtRow: 2}
	cfg := engine.Config{
		Estimator:    guard,
		OverlayReopt: true,
		ExecWrap:     ops.Wrap,
		Limits:       engine.Limits{MaxMatRows: 2_000_000},
	}

	counts := make([]int, len(queries))
	errs = workload.RunEach(context.Background(), len(queries), 8, func(i int) error {
		res, err := eng.Execute(queries[i], cfg)
		counts[i] = res.Count
		return err
	})

	degraded := 0
	for i, err := range errs {
		if err == nil {
			// Estimator faults may change the plan but never the answer.
			if counts[i] != baseline[i] {
				t.Errorf("query %d: chaos count %d != baseline %d", i, counts[i], baseline[i])
			}
			continue
		}
		degraded++
		var re *exec.ResourceError
		if !errors.Is(err, fault.ErrInjected) && !errors.As(err, &re) {
			t.Errorf("query %d: untyped chaos error %v", i, err)
		}
	}

	// The chaos must have been real, and survived.
	if fest.Panics.Load() == 0 || fest.Garbages.Load() == 0 || fest.Latencies.Load() == 0 {
		t.Fatalf("injection never fired: %d panics, %d garbage, %d latency",
			fest.Panics.Load(), fest.Garbages.Load(), fest.Latencies.Load())
	}
	if ops.Errs.Load() == 0 || degraded == 0 {
		t.Fatalf("no operator faults surfaced (injected %d, degraded %d)", ops.Errs.Load(), degraded)
	}
	if degraded == len(queries) {
		t.Fatal("every query degraded; chaos rate far above configuration")
	}
	gs := guard.Stats()
	if gs.Panics == 0 {
		t.Fatal("guard recovered no panics")
	}
	if gs.Trips == 0 || gs.FallbackCalls == 0 {
		t.Fatalf("breaker never tripped onto the histogram fallback: %+v", gs)
	}
	if reg.Counter("cardest.guard.breaker_trips").Value() != gs.Trips {
		t.Fatal("obs counter disagrees with guard stats")
	}
	t.Logf("chaos: %d/%d degraded; guard %+v", degraded, len(queries), gs)
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

// TestChaosParallelExecParity re-runs the chaos workload with morsel-driven
// intra-query parallelism on: for every worker count the engine must fault
// exactly the same queries with the same typed errors as the serial run and
// return identical counts and work on the clean ones. Faulted operators are
// opaque to the exchange, which forces their pipelines back to the serial
// path — parity covers that fallback too.
func TestChaosParallelExecParity(t *testing.T) {
	t.Cleanup(exec.SetMorselSize(64)) // tiny fixtures must split into many morsels
	t.Cleanup(exec.SetExchangeWorkerCap(64))
	db := testutil.TinyDB()
	queries := chaosWorkload(t)[:80]
	hist := histogram.NewEstimator(db)
	eng := engine.New(db)
	ops := &fault.Ops{Err: fault.Injector{Seed: 104, Rate: 0.04}, AtRow: 2}
	mk := func(workers int) engine.Config {
		return engine.Config{
			Estimator:   hist,
			ExecWrap:    ops.Wrap,
			Limits:      engine.Limits{MaxMatRows: 2_000_000},
			ExecWorkers: workers,
		}
	}

	for i, q := range queries {
		sres, serr := eng.Execute(q, mk(0))
		for _, w := range []int{2, 4} {
			pres, perr := eng.Execute(q, mk(w))
			switch {
			case serr == nil && perr == nil:
				if sres.Count != pres.Count {
					t.Errorf("query %d w=%d: serial count %d != parallel count %d", i, w, sres.Count, pres.Count)
				}
				if sres.ExecWork != pres.ExecWork {
					t.Errorf("query %d w=%d: serial work %d != parallel work %d", i, w, sres.ExecWork, pres.ExecWork)
				}
			case serr != nil && perr != nil:
				if !errors.Is(serr, fault.ErrInjected) || !errors.Is(perr, fault.ErrInjected) {
					t.Errorf("query %d w=%d: untyped chaos errors: serial %v, parallel %v", i, w, serr, perr)
				}
			default:
				t.Errorf("query %d w=%d: fault fired on one path only: serial %v, parallel %v", i, w, serr, perr)
			}
		}
	}
}

// TestChaosUnguardedPoolStillSurvives drops the guard entirely: raw
// estimator panics escape into the worker pool, and RunEach must convert
// them into per-query *workload.PanicError without losing the other
// queries.
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
			var pe *workload.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("query %d: %v, want *workload.PanicError", i, err)
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
