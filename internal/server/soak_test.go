package server

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/fault"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// -soak scales the chaos soak from the short deterministic CI run (120
// queries) to an extended one (2000 queries).
var soakFlag = flag.Bool("soak", false, "run the extended server soak")

// chaosStack builds the soak's estimator stack: the histogram baseline
// wrapped in deterministic fault injection (panics, garbage, latency) and
// nothing else. Every fault is a pure function of (query, subset): a panic
// fails its query with *engine.PanicError and garbage is clamped by the
// optimizer, which is what lets a serial oracle predict the concurrent
// server's behavior exactly.
func chaosStack(db *storage.Database) cardest.Estimator {
	return &fault.Estimator{
		Inner:        histogram.NewEstimator(db),
		Panic:        fault.Injector{Seed: 101, Rate: 0.03},
		Garbage:      fault.Injector{Seed: 102, Rate: 0.05},
		Latency:      fault.Injector{Seed: 103, Rate: 0.02},
		LatencyDelay: 50 * time.Microsecond,
	}
}

func chaosOps() *fault.Ops {
	return &fault.Ops{
		Err:   fault.Injector{Seed: 104, Rate: 0.04},
		AtRow: 2,
	}
}

// soakBudget bounds each query's executor work units. The soak must not
// rely on wall-clock deadlines — those fire or don't depending on machine
// load, which would unhinge the serial oracle — so heavy queries are
// truncated by this deterministic budget instead, identically on both
// paths.
const soakBudget = 3_000_000

// soakOutcome classifies one query's result the same way on the serial and
// served paths: exact count on success (budget-truncated counts are
// labelled, and still deterministic), "degraded" for typed resource or
// deadline errors, "failed" for injected operator faults, "panicked" for
// estimator panics.
func soakOutcome(count int, timedOut bool, err error) string {
	var pe *engine.PanicError
	switch {
	case err == nil && timedOut:
		return fmt.Sprintf("budget:%d", count)
	case err == nil:
		return fmt.Sprintf("ok:%d", count)
	case errors.Is(err, fault.ErrInjected):
		return "failed"
	case errors.As(err, &pe):
		return "panicked"
	case isResourceErr(err) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return "degraded"
	default:
		return "error:" + err.Error()
	}
}

// TestServerSoakUnderChaosMatchesSerialOracle drives a concurrent
// two-tenant workload through the fault-injection harness with hot-swaps
// landing mid-load, and asserts every per-query outcome — and therefore the
// ok/degraded/failed tallies — exactly matches a serial fault-free-of-
// concurrency oracle run of the same queries through a bare engine. The
// fault injectors decide by pure hashes of (seed, site, fingerprint, mask),
// so any divergence means the server's concurrency, caching, session, or
// swap machinery changed query semantics.
func TestServerSoakUnderChaosMatchesSerialOracle(t *testing.T) {
	n := 120
	if *soakFlag {
		n = 2000
	}
	db := testutil.TinyDB()
	gen := workload.NewGenerator(db, 17)
	queries := gen.QueriesRange(n, 2, 4)

	ops := chaosOps()
	limits := engine.Limits{MaxMatRows: 2_000_000}

	// Serial oracle: same stack shape, bare engine, one query at a time.
	oracleEst := chaosStack(db)
	eng := engine.New(db)
	oracle := make([]string, n)
	for i, q := range queries {
		res, err := eng.Execute(q, engine.Config{
			Estimator: oracleEst,
			ExecWrap:  ops.Wrap,
			Limits:    limits,
			Budget:    soakBudget,
		})
		oracle[i] = soakOutcome(res.Count, res.TimedOut, err)
	}

	// Served run: two tenants, eight workers, sessions reused per tenant,
	// hot-swaps racing the whole time between two identically-behaving
	// serving sets (so a swap can never be the thing that changes an
	// answer — any swap-attributable failure breaks oracle equality).
	before := runtime.NumGoroutine()
	servedEst := chaosStack(db)
	cfg := Config{
		DB:   db,
		Mode: ModeHistogram,
		Tenants: []TenantConfig{
			{Name: "alpha", Weight: 1, Limits: limits},
			{Name: "beta", Weight: 1, Limits: limits},
		},
		MaxConcurrent:  8,
		MaxQueue:       2 * n,
		DefaultTimeout: 10 * time.Minute, // must never fire: degradation is the Budget's job
		CacheCapacity:  256,              // small on purpose: eviction + recompute must stay byte-identical
		Budget:         soakBudget,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.execWrap = ops.Wrap
	s.installEstimator("chaos-v1", servedEst, nil)

	stopSwaps := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		v := 1
		for {
			select {
			case <-stopSwaps:
				return
			case <-time.After(500 * time.Microsecond):
			}
			v++
			s.installEstimator(fmt.Sprintf("chaos-v%d", v), servedEst, nil)
		}
	}()

	served := make([]string, n)
	runErrs := workload.RunEach(context.Background(), n, 8, func(i int) error {
		tenant := []string{"alpha", "beta"}[i%2]
		res, err := s.Query(context.Background(), QueryRequest{
			Tenant:  tenant,
			Session: fmt.Sprintf("%s-sess-%d", tenant, i%4),
			SQL:     queries[i].SQL(),
		})
		count, timedOut := 0, false
		if res != nil {
			count, timedOut = res.Count, res.TimedOut
		}
		served[i] = soakOutcome(count, timedOut, err)
		return nil
	})
	close(stopSwaps)
	swapper.Wait()
	for i, err := range runErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// Per-query equality, and the tallies that follow from it.
	tally := map[string]int{}
	for i := range oracle {
		if served[i] != oracle[i] {
			t.Fatalf("query %d (%s): served %q, oracle %q", i, queries[i].SQL(), served[i], oracle[i])
		}
		switch {
		case served[i] == "failed" || served[i] == "degraded" || served[i] == "panicked":
			tally[served[i]]++
		default:
			tally["ok"]++
		}
	}
	t.Logf("soak n=%d tally=%v swaps=%d", n, tally, s.MetricsSnapshot().Counters["server.model_swaps"])
	if tally["ok"] == 0 {
		t.Fatal("no query succeeded; the soak exercised nothing")
	}
	if tally["failed"]+tally["degraded"] == 0 {
		t.Fatal("no query was faulted; the chaos injectors never fired")
	}
	if tally["panicked"] == 0 {
		t.Fatal("no estimator panic reached a query")
	}
	if swaps := s.MetricsSnapshot().Counters["server.model_swaps"]; swaps < 2 {
		t.Fatalf("only %d hot-swaps landed during the soak", swaps)
	}

	// Leak-free shutdown under the same roof.
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	waitCond(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	}, fmt.Sprintf("goroutines leaked after soak: %d before, %d after", before, runtime.NumGoroutine()))
}

// TestSoakOracleIsDeterministic guards the soak's foundation: two serial
// runs of the chaos stack over the same workload produce identical
// outcomes. If someone adds state or scheduling dependence to the stack,
// this fails before the soak starts flaking.
func TestSoakOracleIsDeterministic(t *testing.T) {
	db := testutil.TinyDB()
	queries := workload.NewGenerator(db, 17).QueriesRange(40, 2, 4)
	run := func() []string {
		est := chaosStack(db)
		ops := chaosOps()
		eng := engine.New(db)
		out := make([]string, len(queries))
		for i, q := range queries {
			res, err := eng.Execute(q, engine.Config{Estimator: est, ExecWrap: ops.Wrap, Budget: soakBudget})
			out[i] = soakOutcome(res.Count, res.TimedOut, err)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("query %d: run1 %q, run2 %q", i, a[i], b[i])
		}
	}
	// The parsed-back SQL round trip used by the served path preserves
	// fingerprints, which the fault injectors key on.
	for _, q := range queries[:10] {
		rt, _, err := (&session{prepared: map[string]*query.Query{}}).prepare(db.Schema, q.SQL())
		if err != nil {
			t.Fatalf("reparse %q: %v", q.SQL(), err)
		}
		if rt.Fingerprint() != q.Fingerprint() {
			t.Fatalf("fingerprint drift through SQL round trip: %q", q.SQL())
		}
	}
}
