package server

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/fault"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// slowOp pads each operator's Open with a fixed sleep. The served soak run
// wraps its operators in it so every query has a guaranteed minimum service
// time: overload then follows from arithmetic (burst arrival rate × service
// time ≫ capacity) instead of from scheduler luck, which matters on
// single-CPU CI runners. Outcomes are untouched — soak classification is
// budget-based, never wall-clock-based — so the serial oracles skip the
// padding and stay fast.
type slowOp struct {
	exec.BatchOperator
	d time.Duration
}

func (o slowOp) Open(ctx *exec.Ctx) error {
	time.Sleep(o.d)
	return o.BatchOperator.Open(ctx)
}

// TestServerOverloadSoak extends the chaos soak with the full overload
// story: spiky arrivals against a rate-limited, deliberately undersized
// server, backoff-retrying clients honoring Retry-After, the health machine
// walking healthy→degraded→overloaded and back, and the estimator ladder
// routing overloaded-state queries onto the shed rung.
//
// The correctness bar is the same as the base soak, adapted to two rungs:
// every query that the server ADMITTED and answered must match a serial
// oracle byte-for-byte — the primary-rung oracle (chaos stack) or the
// shed-rung oracle (plain histogram), selected by the rung the result
// reports. Queries the server SHED are excluded from oracle comparison but
// accounted exactly: the clients' per-class error observations must equal
// the server's per-tenant shed counters to the last request.
func TestServerOverloadSoak(t *testing.T) {
	n := 240
	if *soakFlag {
		n = 2000
	}
	db := testutil.TinyDB()
	queries := workload.NewGenerator(db, 23).QueriesRange(n, 2, 4)
	limits := engine.Limits{MaxMatRows: 2_000_000}

	// Serial oracles, one per ladder rung. Both stacks are pure functions of
	// (query, subset) — the chaos stack's faults are hashes of it and the
	// histogram is stateless — so each oracle predicts its rung of the
	// concurrent server exactly.
	oracleRun := func(shed bool) []string {
		eng := engine.New(db)
		ops := chaosOps()
		cfg := engine.Config{ExecWrap: ops.Wrap, Limits: limits, Budget: soakBudget}
		if shed {
			cfg.Estimator = histogram.NewEstimator(db)
		} else {
			cfg.Estimator = chaosStack(db)
		}
		out := make([]string, n)
		for i, q := range queries {
			res, err := eng.Execute(q, cfg)
			out[i] = soakOutcome(res.Count, res.TimedOut, err)
		}
		return out
	}
	oraclePrimary := oracleRun(false)
	oracleShed := oracleRun(true)

	// The served run: 2 weight units of capacity, 24 workers, spiky
	// arrivals, per-tenant rate limits, queue-depth-driven health states.
	before := runtime.NumGoroutine()
	var transMu sync.Mutex
	var transitions []string
	ops := chaosOps()
	slowWrap := func(ctx *exec.Ctx, op exec.BatchOperator, n *plan.Node) exec.BatchOperator {
		return slowOp{BatchOperator: ops.Wrap(ctx, op, n), d: 500 * time.Microsecond}
	}
	cfg := Config{
		DB:   db,
		Mode: ModeHistogram,
		Tenants: []TenantConfig{
			{Name: "alpha", Weight: 1, Limits: limits, RateQPS: 300, RateBurst: 4},
			{Name: "beta", Weight: 1, Limits: limits, RateQPS: 300, RateBurst: 4},
		},
		MaxConcurrent:  2,
		MaxQueue:       2 * n,
		DefaultTimeout: 10 * time.Minute, // degradation is the Budget's job
		CacheCapacity:  256,
		Budget:         soakBudget,
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.execWrap = slowWrap
	// A ladder far shallower than the one MaxQueue derives (n and 1.8n
	// queued), so the spikes walk it while the queue itself never
	// overflows; a short dwell lets recovery finish within the test.
	s.health.degradedAt, s.health.overloadedAt, s.health.holdDown = 2, 5, 50*time.Millisecond
	s.health.onTransition = func(from, to HealthState) {
		transMu.Lock()
		transitions = append(transitions, from.String()+">"+to.String())
		transMu.Unlock()
	}
	s.installEstimator("overload-v1", chaosStack(db), nil)
	var maxDepth atomic.Int64
	innerHook := s.adm.onQueue
	s.adm.onQueue = func(d int) {
		for {
			m := maxDepth.Load()
			if int64(d) <= m || maxDepth.CompareAndSwap(m, int64(d)) {
				break
			}
		}
		innerHook(d)
	}

	// Client-side accounting: every error observation by class, including
	// retried attempts — the server counts attempts too, so these must tie
	// out exactly at the end.
	var cliRateLimited, cliQueueFull, cliUnmeetable, cliClosed atomic.Int64
	countCli := func(err error) {
		switch {
		case errors.Is(err, ErrRateLimited):
			cliRateLimited.Add(1)
		case errors.Is(err, ErrQueueFull):
			cliQueueFull.Add(1)
		case errors.Is(err, ErrDeadlineUnmeetable):
			cliUnmeetable.Add(1)
		case errors.Is(err, ErrClosed):
			cliClosed.Add(1)
		}
	}

	spike := fault.Spike{Period: 32, Burst: 24, Gap: 300 * time.Microsecond}
	backoff := workload.Backoff{
		Base: time.Millisecond, Max: 20 * time.Millisecond,
		MaxAttempts: 8, Seed: 7,
		Budget: workload.NewRetryBudget(int64(n) * 16),
	}

	type outcome struct {
		s        string
		compared bool // admitted non-deadline request: oracle-comparable
		rungOK   bool // result seen, rung known
		fallback bool // served from the shed rung
	}
	served := make([]outcome, n)
	runErrs := workload.RunEach(context.Background(), n, 32, func(i int) error {
		time.Sleep(spike.Delay(i))
		tenant := []string{"alpha", "beta"}[i%2]
		req := QueryRequest{
			Tenant:  tenant,
			Session: fmt.Sprintf("%s-sess-%d", tenant, i%4),
			SQL:     queries[i].SQL(),
		}
		if i%16 == 9 {
			// Deadline-carrying probe: too tight to survive a loaded queue.
			// Whether it dies pre-admission (504 unmeetable) or mid-execution
			// depends on load, so it is accounted but never oracle-compared.
			req.Timeout = time.Millisecond
			_, err := s.Query(context.Background(), req)
			if err != nil {
				countCli(err)
			}
			return nil
		}
		var res *QueryResult
		_, err := backoff.Retry(context.Background(), uint64(i), nil, func() error {
			var qerr error
			res, qerr = s.Query(context.Background(), req)
			if qerr != nil {
				countCli(qerr)
			}
			return qerr
		})
		var hint workload.RetryAfterHint
		if err != nil && errors.As(err, &hint) {
			// Finally shed after exhausting retries: accounted, not compared.
			served[i] = outcome{s: "shed"}
			return nil
		}
		count, timedOut := 0, false
		if res != nil {
			count, timedOut = res.Count, res.TimedOut
		}
		served[i] = outcome{
			s:        soakOutcome(count, timedOut, err),
			compared: true,
			rungOK:   res != nil,
			fallback: res != nil && res.FallbackEstimator,
		}
		return nil
	})
	for i, err := range runErrs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// Oracle equality for every admitted query. A result in hand pins the
	// rung; an errored query (no result) must match one of the two rungs.
	tally := map[string]int{}
	fallbacks := 0
	for i, o := range served {
		if !o.compared {
			continue
		}
		switch {
		case o.rungOK && o.fallback:
			fallbacks++
			if o.s != oracleShed[i] {
				t.Fatalf("query %d (%s) on shed rung: served %q, oracle %q",
					i, queries[i].SQL(), o.s, oracleShed[i])
			}
		case o.rungOK:
			if o.s != oraclePrimary[i] {
				t.Fatalf("query %d (%s) on primary rung: served %q, oracle %q",
					i, queries[i].SQL(), o.s, oraclePrimary[i])
			}
		default:
			if o.s != oraclePrimary[i] && o.s != oracleShed[i] {
				t.Fatalf("query %d (%s): served %q, oracle primary %q / shed %q",
					i, queries[i].SQL(), o.s, oraclePrimary[i], oracleShed[i])
			}
		}
		switch {
		case o.s == "failed" || o.s == "degraded" || o.s == "panicked":
			tally[o.s]++
		default:
			tally["ok"]++
		}
	}
	if tally["ok"] == 0 {
		t.Fatal("no admitted query succeeded; the soak proved nothing")
	}
	if tally["failed"]+tally["degraded"]+tally["panicked"] == 0 {
		t.Fatal("no chaos fault fired during the soak")
	}
	if cliRateLimited.Load() == 0 {
		t.Fatal("no request was rate limited; the overload never happened")
	}

	// Recovery: with the load gone, polling walks the state back down to
	// healthy (stepwise, hold-down 50ms per step).
	waitCond(t, 10*time.Second, func() bool {
		return s.HealthState() == StateHealthy
	}, "health state never recovered to healthy")

	// The full transition cycle must have been observed, in order.
	transMu.Lock()
	seq := append([]string(nil), transitions...)
	transMu.Unlock()
	wantCycle := []string{"healthy>degraded", "degraded>overloaded", "overloaded>degraded", "degraded>healthy"}
	at := 0
	for _, tr := range seq {
		if at < len(wantCycle) && tr == wantCycle[at] {
			at++
		}
	}
	if at != len(wantCycle) {
		t.Fatalf("transitions %v missing the cycle %v (max depth %d)", seq, wantCycle, maxDepth.Load())
	}

	// Post-drain burst: the rate buckets refilled to full depth during the
	// recovery wait (4 tokens ≫ 13ms of refill; recovery holds ≥100ms), so
	// all 8 queries — 4 per tenant, within burst — reach admission and shed
	// with the typed 503.
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i := 0; i < 8; i++ {
		_, err := s.Query(context.Background(), QueryRequest{
			Tenant: []string{"alpha", "beta"}[i%2], SQL: queries[0].SQL(),
		})
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("post-close query %d: %v, want ErrClosed", i, err)
		}
		countCli(err)
	}

	// Exact shed accounting: client observations == server counters, per
	// class, across both tenants.
	m := s.MetricsSnapshot()
	sum := func(metric string) int64 {
		return m.Counters["tenant.alpha."+metric] + m.Counters["tenant.beta."+metric]
	}
	if got, want := sum("server.shed.rate_limited"), cliRateLimited.Load(); got != want {
		t.Fatalf("shed.rate_limited: server %d, clients observed %d", got, want)
	}
	if got, want := sum("server.shed.queue_full"), cliQueueFull.Load(); got != want {
		t.Fatalf("shed.queue_full: server %d, clients observed %d", got, want)
	}
	if got, want := sum("server.shed.deadline"), cliUnmeetable.Load(); got != want {
		t.Fatalf("shed.deadline: server %d, clients observed %d", got, want)
	}
	if got, want := sum("server.shed.closed"), cliClosed.Load(); got != want {
		t.Fatalf("shed.closed: server %d, clients observed %d", got, want)
	}
	if got := cliClosed.Load(); got != 8 {
		t.Fatalf("post-close 503 tally = %d, want exactly 8", got)
	}

	t.Logf("overload soak n=%d tally=%v fallback-rung=%d rate-limited=%d unmeetable=%d transitions=%d",
		n, tally, fallbacks, cliRateLimited.Load(), cliUnmeetable.Load(), len(seq))

	// Leak-free under the same roof.
	waitCond(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	}, fmt.Sprintf("goroutines leaked after overload soak: %d before, %d after", before, runtime.NumGoroutine()))
}
