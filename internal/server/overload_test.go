package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/sqlparse"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// Compile-time: the typed sheds satisfy the client backoff hint interface.
var (
	_ workload.RetryAfterHint = (*RateLimitError)(nil)
	_ workload.RetryAfterHint = (*ShedError)(nil)
)

// manualClock is a settable time source for bucket and health tests.
type manualClock struct{ t time.Time }

func (c *manualClock) now() time.Time                    { return c.t }
func (c *manualClock) advance(d time.Duration) time.Time { c.t = c.t.Add(d); return c.t }

func TestTokenBucketBurstAndRefill(t *testing.T) {
	clk := &manualClock{t: time.Unix(1000, 0)}
	b := newTokenBucket(10, 3, nil) // 10 qps, burst 3
	b.now = clk.now
	b.last = clk.t

	// The full burst passes back-to-back, then the bucket is dry.
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(); !ok {
			t.Fatalf("burst request %d refused", i)
		}
	}
	ok, after := b.take()
	if ok {
		t.Fatal("4th back-to-back request must be refused")
	}
	// One token refills in 1/qps = 100ms; the hint must say so.
	if after <= 0 || after > 100*time.Millisecond {
		t.Fatalf("retry-after = %v, want (0, 100ms]", after)
	}

	// After exactly the hinted wait, one request passes and the next is
	// refused again (sustained rate, not burst).
	clk.advance(after)
	if ok, _ := b.take(); !ok {
		t.Fatal("request after hinted wait refused")
	}
	if ok, _ := b.take(); ok {
		t.Fatal("second request at sustained rate must be refused")
	}

	// A long idle refills to burst depth, never beyond.
	clk.advance(time.Hour)
	for i := 0; i < 3; i++ {
		if ok, _ := b.take(); !ok {
			t.Fatalf("post-idle burst request %d refused", i)
		}
	}
	if ok, _ := b.take(); ok {
		t.Fatal("bucket refilled beyond burst depth")
	}
}

func TestRateLimitErrorTyping(t *testing.T) {
	err := &RateLimitError{Tenant: "alpha", After: 250 * time.Millisecond}
	if !errors.Is(err, ErrRateLimited) {
		t.Fatal("RateLimitError must match ErrRateLimited")
	}
	if statusFor(err) != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", statusFor(err))
	}
	var hint workload.RetryAfterHint
	if !errors.As(err, &hint) || hint.RetryAfter() != 250*time.Millisecond {
		t.Fatal("RetryAfter hint not exposed")
	}
}

func TestShedErrorWrapsSentinels(t *testing.T) {
	err := &ShedError{Err: ErrQueueFull, After: 5 * time.Millisecond}
	if !errors.Is(err, ErrQueueFull) {
		t.Fatal("ShedError must unwrap to its sentinel")
	}
	if statusFor(err) != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", statusFor(err))
	}
	if err.RetryAfter() != 5*time.Millisecond {
		t.Fatal("hint lost")
	}
	un := &ShedError{Err: ErrDeadlineUnmeetable, After: time.Millisecond}
	if statusFor(un) != http.StatusGatewayTimeout {
		t.Fatalf("unmeetable status = %d, want 504", statusFor(un))
	}
}

// TestServerRateLimitedQuery drives one tenant past its token bucket and
// asserts typed rejection, per-tenant attribution, and the other tenant's
// isolation from the flood.
func TestServerRateLimitedQuery(t *testing.T) {
	db := testutil.TinyDB()
	cfg := histConfig(db)
	// alpha: effectively no refill within the test, burst 2.
	cfg.Tenants[0].RateQPS = 0.001
	cfg.Tenants[0].RateBurst = 2
	s := mustServer(t, cfg)

	for i := 0; i < 2; i++ {
		if _, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)}); err != nil {
			t.Fatalf("burst query %d: %v", i, err)
		}
	}
	_, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)})
	if !errors.Is(err, ErrRateLimited) {
		t.Fatalf("err = %v, want ErrRateLimited", err)
	}
	var hint workload.RetryAfterHint
	if !errors.As(err, &hint) || hint.RetryAfter() <= 0 {
		t.Fatal("rate-limit rejection must carry a positive Retry-After hint")
	}

	// beta has no rate config and is untouched by alpha's flood.
	if _, err := s.Query(context.Background(), QueryRequest{Tenant: "beta", SQL: testSQL(1)}); err != nil {
		t.Fatalf("beta query: %v", err)
	}

	m := s.MetricsSnapshot()
	if n := m.Counters["tenant.alpha.server.shed.rate_limited"]; n != 1 {
		t.Fatalf("alpha shed.rate_limited = %d, want 1", n)
	}
	if n := m.Counters["tenant.alpha.server.served"]; n != 2 {
		t.Fatalf("alpha served = %d, want 2", n)
	}
	if n := m.Counters["tenant.beta.server.shed.rate_limited"]; n != 0 {
		t.Fatalf("beta shed.rate_limited = %d, want 0", n)
	}
	if n := m.Counters["tenant.beta.server.served"]; n != 1 {
		t.Fatalf("beta served = %d, want 1", n)
	}
}

// TestServerBackoffClientsAllServedAcrossSwap pins the property of a
// sustainable rate limit: under a per-tenant bucket of 200 qps and burst 4,
// clients that back off by the server's Retry-After hints get every query
// served, with the bare engine's count, while a model hot-swap lands mid-run.
// Each tenant has one closed-loop client, so a client that waits out its
// hint finds the token it was promised: the outcome does not depend on how
// fast queries run, which keeps the case deterministic under -race on one
// core. Client retries must equal the server's rate-limit sheds exactly.
func TestServerBackoffClientsAllServedAcrossSwap(t *testing.T) {
	db, enc, set := fixture(t)
	const perTenant = 24
	tenants := []string{"alpha", "beta"}

	eng := engine.New(db)
	hist := histogram.NewEstimator(db)
	oracle := make(map[string]int)
	for i := 0; i < 3; i++ {
		q, err := sqlparse.Parse(db.Schema, testSQL(i))
		if err != nil {
			t.Fatal(err)
		}
		res, err := eng.Execute(q, engine.Config{Estimator: hist})
		if err != nil {
			t.Fatal(err)
		}
		oracle[testSQL(i)] = res.Count
	}

	cfg := histConfig(db)
	cfg.Enc, cfg.Mode, cfg.Models = enc, ModeLPCER, set
	for i := range cfg.Tenants {
		cfg.Tenants[i].RateQPS, cfg.Tenants[i].RateBurst = 200, 4
	}
	s := mustServer(t, cfg)

	backoff := workload.Backoff{Base: 2 * time.Millisecond, Max: 50 * time.Millisecond, MaxAttempts: 8, Seed: 42}
	var (
		done     atomic.Int64
		swapOnce sync.Once
		wg       sync.WaitGroup
		mu       sync.Mutex
		versions = map[string]int{}
	)
	retries := make([]int64, len(tenants))
	errs := make([]error, len(tenants))
	for ti, tenant := range tenants {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perTenant; i++ {
				sql := testSQL(i)
				var res *QueryResult
				attempts, err := backoff.Retry(context.Background(), uint64(ti*perTenant+i), nil, func() error {
					var qerr error
					res, qerr = s.Query(context.Background(), QueryRequest{Tenant: tenant, Session: tenant, SQL: sql})
					return qerr
				})
				retries[ti] += int64(attempts - 1)
				if err != nil {
					errs[ti] = fmt.Errorf("%s query %d not served after %d attempts: %w", tenant, i, attempts, err)
					return
				}
				if res.Count != oracle[sql] {
					errs[ti] = fmt.Errorf("%s query %d: count %d, bare engine %d", tenant, i, res.Count, oracle[sql])
					return
				}
				mu.Lock()
				versions[res.ModelVersion]++
				mu.Unlock()
				if done.Add(1) == perTenant {
					swapOnce.Do(func() {
						s.installEstimator("swap-v2", &core.TreeEstimator{Label: "lpce-i", Model: set.LPCEI.Model, Enc: enc}, set.Refiner)
					})
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	m := s.MetricsSnapshot()
	if n := m.Counters["server.model_swaps"]; n != 1 {
		t.Fatalf("model swaps = %d, want 1", n)
	}
	if versions["boot"] == 0 || versions["swap-v2"] == 0 {
		t.Fatalf("queries by serving version %v: the swap did not land mid-run", versions)
	}
	for ti, tenant := range tenants {
		if n := m.Counters["tenant."+tenant+".server.served"]; n != perTenant {
			t.Fatalf("%s served = %d, want %d", tenant, n, perTenant)
		}
		if n := m.Counters["tenant."+tenant+".server.shed.rate_limited"]; n != retries[ti] {
			t.Fatalf("%s: server counted %d rate-limit sheds, client retried %d times", tenant, n, retries[ti])
		}
	}
	t.Logf("retries per tenant %v, queries by version %v", retries, versions)
}

// TestHTTPRetryAfterHeaders asserts the Retry-After header on every shed
// class the HTTP layer can produce: 429 rate limited, 503 closed, and 504
// deadline-unmeetable (driven via the X-Deadline-Ms header).
func TestHTTPRetryAfterHeaders(t *testing.T) {
	db := testutil.TinyDB()
	cfg := histConfig(db)
	cfg.Tenants[0].RateQPS = 0.001
	cfg.Tenants[0].RateBurst = 1
	s := mustServer(t, cfg)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(tenant, deadlineMS string) *http.Response {
		body, _ := json.Marshal(map[string]string{"tenant": tenant, "sql": testSQL(0)})
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/query", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if deadlineMS != "" {
			req.Header.Set("X-Deadline-Ms", deadlineMS)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("POST /query: %v", err)
		}
		resp.Body.Close()
		return resp
	}

	// Exhaust alpha's single token, then expect 429 + Retry-After.
	if resp := post("alpha", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("first query status = %d", resp.StatusCode)
	}
	resp := post("alpha", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}

	// An unmeetable deadline (predicted wait above the header deadline,
	// with the admit path forced through the queue) → 504 + Retry-After.
	s.adm.mu.Lock()
	s.adm.waitEWMA = time.Second
	s.adm.used = s.adm.cap // force the would-enqueue path
	s.adm.mu.Unlock()
	resp = post("beta", "5")
	s.adm.mu.Lock()
	s.adm.used = 0
	s.adm.waitEWMA = 0
	s.adm.mu.Unlock()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("unmeetable status = %d, want 504", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("504-unmeetable must carry Retry-After")
	}

	// Closed server → 503 + Retry-After.
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	resp = post("beta", "")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 must carry Retry-After")
	}
}

// TestExplainAdmittedLikeQuery asserts that /explain passes the same
// admission as /query: the tenant's token bucket sheds a second EXPLAIN
// with 429 + Retry-After and counts it under the tenant, and an
// X-Deadline-Ms header bounds an EXPLAIN queued behind a held slot.
func TestExplainAdmittedLikeQuery(t *testing.T) {
	db := testutil.TinyDB()
	g := newGate()
	cfg := histConfig(db)
	cfg.Tenants[0].RateQPS = 0.001
	cfg.Tenants[0].RateBurst = 1
	cfg.MaxConcurrent = 1
	s := mustServer(t, cfg)
	s.execWrap = g.wrap
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	// Far below the 30 s default timeout: an EXPLAIN that ignores its
	// header deadline fails here instead of hanging the test.
	client := &http.Client{Timeout: 10 * time.Second}

	explain := func(tenant, deadlineMS string) *http.Response {
		body, _ := json.Marshal(map[string]string{"tenant": tenant, "sql": testSQL(0)})
		req, _ := http.NewRequest(http.MethodPost, srv.URL+"/explain", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		if deadlineMS != "" {
			req.Header.Set("X-Deadline-Ms", deadlineMS)
		}
		resp, err := client.Do(req)
		if err != nil {
			t.Fatalf("POST /explain: %v", err)
		}
		resp.Body.Close()
		return resp
	}

	if resp := explain("alpha", ""); resp.StatusCode != http.StatusOK {
		t.Fatalf("first explain status = %d", resp.StatusCode)
	}
	resp := explain("alpha", "")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("rate-limited explain status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 must carry Retry-After")
	}
	if got := s.MetricsSnapshot().Counters["tenant.alpha.server.shed.rate_limited"]; got != 1 {
		t.Fatalf("tenant.alpha.server.shed.rate_limited = %d, want 1", got)
	}

	// A query holds the only slot at the gate; the EXPLAIN behind it queues
	// until its 100 ms header deadline expires.
	held := make(chan error, 1)
	go func() {
		_, err := s.Query(context.Background(), QueryRequest{Tenant: "beta", SQL: testSQL(1)})
		held <- err
	}()
	select {
	case <-g.announce:
	case <-time.After(10 * time.Second):
		t.Fatal("held query never reached the executor")
	}
	if resp := explain("beta", "100"); resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("explain behind a held slot: status = %d, want 504", resp.StatusCode)
	}
	close(g.release)
	if err := <-held; err != nil {
		t.Fatalf("held query: %v", err)
	}
}

func TestHealthMachineStepwiseTransitionsAndHoldDown(t *testing.T) {
	clk := &manualClock{t: time.Unix(2000, 0)}
	var seen []string
	h := newHealthMachine(16, obs.NewObserver().Registry()) // degraded at 8, overloaded at 14
	h.now = clk.now
	h.lastStep = clk.t
	h.onTransition = func(from, to HealthState) {
		seen = append(seen, from.String()+">"+to.String())
	}

	// A sudden jump straight past both thresholds still steps one level per
	// evaluation: healthy→degraded, then degraded→overloaded.
	h.observeQueue(15)
	if h.current() != StateDegraded {
		t.Fatalf("after first eval state = %v, want degraded", h.current())
	}
	h.observeQueue(15)
	if h.current() != StateOverloaded {
		t.Fatalf("after second eval state = %v, want overloaded", h.current())
	}

	// The queue empties: hold-down pins the state until the dwell passes,
	// then recovery steps down one level at a time.
	h.observeQueue(0)
	if h.current() != StateOverloaded {
		t.Fatal("hold-down must delay the downward step")
	}
	clk.advance(3 * time.Second)
	h.observeQueue(0)
	if h.current() != StateDegraded {
		t.Fatalf("state = %v, want degraded (stepwise recovery)", h.current())
	}
	clk.advance(3 * time.Second)
	h.tick() // idle recovery needs no traffic
	if h.current() != StateHealthy {
		t.Fatalf("state = %v, want healthy", h.current())
	}

	want := []string{"healthy>degraded", "degraded>overloaded", "overloaded>degraded", "degraded>healthy"}
	if len(seen) != len(want) {
		t.Fatalf("transitions %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("transition[%d] = %s, want %s", i, seen[i], want[i])
		}
	}
}

// TestHealthLadderDerivedFromMaxQueue pins the ladder New builds from the
// admission queue bound: degraded at max(1, MaxQueue/2) queued requests,
// overloaded at max(degraded+1, MaxQueue·9/10), one level per evaluation,
// and a 2 s dwell before each downward step.
func TestHealthLadderDerivedFromMaxQueue(t *testing.T) {
	for _, tc := range []struct{ maxQueue, degraded, overloaded int }{
		{0, 1, 2}, {1, 1, 2}, {2, 1, 2}, {16, 8, 14}, {32, 16, 28},
	} {
		cfg := histConfig(testutil.TinyDB())
		cfg.MaxQueue = tc.maxQueue
		if tc.maxQueue == 0 {
			cfg.MaxQueue = -1 // no queueing: the zero value means the default 16
		}
		h := mustServer(t, cfg).health
		clk := &manualClock{t: time.Unix(4000, 0)}
		h.now = clk.now
		h.lastStep = clk.t
		step := func(depth int, want HealthState) {
			t.Helper()
			h.observeQueue(depth)
			if got := h.current(); got != want {
				t.Fatalf("MaxQueue %d, queue %d: state %v, want %v", tc.maxQueue, depth, got, want)
			}
		}

		// Just below each threshold holds, at it steps up one level only.
		step(tc.degraded-1, StateHealthy)
		step(tc.degraded, StateDegraded)
		step(tc.overloaded-1, StateDegraded)
		step(tc.overloaded+5, StateOverloaded)
		step(tc.overloaded, StateOverloaded)

		// Recovery waits out the 2 s dwell at every level.
		clk.advance(2*time.Second - time.Nanosecond)
		step(0, StateOverloaded)
		clk.advance(time.Nanosecond)
		step(0, StateDegraded)
		step(0, StateDegraded)
		clk.advance(2 * time.Second)
		step(0, StateHealthy)

		// A jump past both thresholds takes two evaluations.
		step(tc.overloaded, StateDegraded)
		step(tc.overloaded, StateOverloaded)
	}
}

// TestAdmissionDeadlineUnmeetableRejectsBeforeQueueing seeds the wait EWMA
// and asserts a too-tight deadline is rejected without consuming a
// semaphore unit or a queue slot.
func TestAdmissionDeadlineUnmeetableRejectsBeforeQueueing(t *testing.T) {
	reg := obs.NewObserver().Registry()
	a := newAdmitter(1, 4, reg)

	// Occupy the only slot so new arrivals face the queue.
	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatalf("occupy: %v", err)
	}
	a.mu.Lock()
	a.waitEWMA = 100 * time.Millisecond
	a.mu.Unlock()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	err := a.acquire(ctx, 1)
	if !errors.Is(err, ErrDeadlineUnmeetable) {
		t.Fatalf("err = %v, want ErrDeadlineUnmeetable", err)
	}
	var hint workload.RetryAfterHint
	if !errors.As(err, &hint) || hint.RetryAfter() <= 0 {
		t.Fatal("unmeetable rejection must hint a retry delay")
	}
	used, queued := a.stats()
	if used != 1 || queued != 0 {
		t.Fatalf("used=%d queued=%d; the rejection must consume nothing", used, queued)
	}
	if n := reg.Counter("server.admission.rejected_deadline").Value(); n != 1 {
		t.Fatalf("rejected_deadline = %d, want 1", n)
	}

	// A deadline beyond the prediction queues normally.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Minute)
	defer cancel2()
	done := make(chan error, 1)
	go func() { done <- a.acquire(ctx2, 1) }()
	waitCond(t, 5*time.Second, func() bool { _, q := a.stats(); return q == 1 }, "roomy deadline never queued")
	a.release(1)
	if err := <-done; err != nil {
		t.Fatalf("queued acquire: %v", err)
	}
	a.release(1)
}

// TestAdmissionCancelWhileQueuedReleasesSlot cancels a queued waiter and
// asserts the queue depth drops immediately and no capacity leaks.
func TestAdmissionCancelWhileQueuedReleasesSlot(t *testing.T) {
	a := newAdmitter(1, 4, obs.NewObserver().Registry())
	var depths []int
	a.onQueue = func(d int) { depths = append(depths, d) }

	if err := a.acquire(context.Background(), 1); err != nil {
		t.Fatalf("occupy: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- a.acquire(ctx, 1) }()
	waitCond(t, 5*time.Second, func() bool { _, q := a.stats(); return q == 1 }, "waiter never queued")

	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter err = %v", err)
	}
	waitCond(t, 5*time.Second, func() bool { _, q := a.stats(); return q == 0 }, "queue depth not decremented on cancel")

	// The cancelled waiter must not have consumed capacity: releasing the
	// original admit leaves the semaphore fully free.
	a.release(1)
	used, queued := a.stats()
	if used != 0 || queued != 0 {
		t.Fatalf("used=%d queued=%d after release; cancelled waiter leaked", used, queued)
	}
	// The health feed observed both the enqueue and the cancel-drop.
	sawUp, sawDown := false, false
	for _, d := range depths {
		if d == 1 {
			sawUp = true
		}
		if sawUp && d == 0 {
			sawDown = true
		}
	}
	if !sawUp || !sawDown {
		t.Fatalf("onQueue saw %v, want 1 then 0", depths)
	}
}

// TestServerDrainDuringRateLimitedBurst closes the server mid-burst against
// a rate-limited tenant: every outcome is one of success, 429, or 503, and
// the drain completes cleanly.
func TestServerDrainDuringRateLimitedBurst(t *testing.T) {
	db := testutil.TinyDB()
	cfg := histConfig(db)
	cfg.Tenants[0].RateQPS = 50
	cfg.Tenants[0].RateBurst = 4
	s := mustServer(t, cfg)

	const n = 24
	errs := make(chan error, n)
	start := make(chan struct{})
	for i := 0; i < n; i++ {
		go func() {
			<-start
			_, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)})
			errs <- err
		}()
	}
	close(start)
	if err := s.Close(context.Background()); err != nil {
		t.Fatalf("Close during burst: %v", err)
	}
	for i := 0; i < n; i++ {
		err := <-errs
		if err == nil || errors.Is(err, ErrRateLimited) || errors.Is(err, ErrClosed) || errors.Is(err, ErrQueueFull) {
			continue
		}
		t.Fatalf("unexpected outcome during drain: %v", err)
	}
	// Post-drain stragglers shed with 503 or 429, never hang.
	_, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)})
	if !errors.Is(err, ErrClosed) && !errors.Is(err, ErrRateLimited) {
		t.Fatalf("post-close err = %v, want ErrClosed or ErrRateLimited", err)
	}
}

// TestLadderRoutingUnderForcedOverload pins the health state and asserts
// the estimator rung, the result annotations, and whether the rung carries
// the refiner at each level. A counting primary proves the overload rung
// bypasses the primary stack: healthy and degraded queries reach it,
// overloaded ones never call it.
func TestLadderRoutingUnderForcedOverload(t *testing.T) {
	db, _, set := fixture(t)
	s := mustServer(t, histConfig(db))
	hist := histogram.NewEstimator(db)
	var primaryCalls atomic.Int64
	s.installEstimator("counting", cardest.FuncEstimator{
		Label: "counting-primary",
		Fn: func(q *query.Query, mask query.BitSet) float64 {
			primaryCalls.Add(1)
			return hist.EstimateSubset(q, mask)
		},
	}, set.Refiner)
	alpha := s.tenants["alpha"]

	// Healthy: primary stack with its refiner.
	res, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)})
	if err != nil {
		t.Fatalf("healthy query: %v", err)
	}
	if res.FallbackEstimator || res.HealthState != "healthy" {
		t.Fatalf("healthy result = %+v", res)
	}
	if primaryCalls.Load() == 0 {
		t.Fatal("healthy query never reached the primary estimator")
	}
	if s.rungFor(alpha).refiner == nil {
		t.Fatal("healthy rung dropped the refiner")
	}
	base := res.Count

	// Degraded: primary stack still serves, without its refiner. A
	// statement alpha has not run misses its cache and reaches the primary.
	s.health.force(StateDegraded)
	before := primaryCalls.Load()
	res, err = s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(1)})
	if err != nil {
		t.Fatalf("degraded query: %v", err)
	}
	if res.FallbackEstimator {
		t.Fatal("degraded must NOT route to the shed estimator")
	}
	if res.HealthState != "degraded" {
		t.Fatalf("HealthState = %q, want degraded", res.HealthState)
	}
	if primaryCalls.Load() == before {
		t.Fatal("degraded query never reached the primary estimator")
	}
	if s.rungFor(alpha).refiner != nil {
		t.Fatal("degraded rung kept the refiner")
	}

	// Overloaded: the histogram plans, results stay correct, and the primary
	// is not called — even from beta, whose primary cache is still cold.
	s.health.force(StateOverloaded)
	before = primaryCalls.Load()
	res, err = s.Query(context.Background(), QueryRequest{Tenant: "beta", SQL: testSQL(0)})
	if err != nil {
		t.Fatalf("overloaded query: %v", err)
	}
	if !res.FallbackEstimator {
		t.Fatal("overloaded must route to the shed estimator")
	}
	if n := primaryCalls.Load() - before; n != 0 {
		t.Fatalf("overloaded query made %d primary estimator calls, want 0", n)
	}
	if res.Estimator != hist.Name() {
		t.Fatalf("estimator = %q, want the histogram %q", res.Estimator, hist.Name())
	}
	if res.Count != base {
		t.Fatalf("shed-rung count = %d, want %d (plans may differ, results may not)", res.Count, base)
	}
	if s.rungFor(alpha).refiner != nil {
		t.Fatal("overloaded rung kept the refiner")
	}

	// healthz reports the state without flipping to 503.
	s.health.force(StateDegraded)
	h := s.Health()
	if h.State != "degraded" || h.Status != "degraded" {
		t.Fatalf("Health = %+v, want degraded state", h)
	}
	rr := httptest.NewRecorder()
	s.handleHealthz(rr, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rr.Code != http.StatusOK {
		t.Fatalf("degraded healthz = %d, want 200 (alive, reduced quality)", rr.Code)
	}
	s.health.force(StateHealthy)
}

// TestExplainUnderOverloadPlansOnShedRung: an EXPLAIN takes the rung a
// /query would, so under overload it pays no primary inference and shows
// the histogram's plan.
func TestExplainUnderOverloadPlansOnShedRung(t *testing.T) {
	db := testutil.TinyDB()
	s := mustServer(t, histConfig(db))
	hist := histogram.NewEstimator(db)
	var primaryCalls atomic.Int64
	s.installEstimator("counting", cardest.FuncEstimator{
		Label: "counting-primary",
		Fn: func(q *query.Query, mask query.BitSet) float64 {
			primaryCalls.Add(1)
			return hist.EstimateSubset(q, mask)
		},
	}, nil)

	s.health.force(StateOverloaded)
	got, err := s.Explain(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)})
	if err != nil {
		t.Fatalf("overloaded explain: %v", err)
	}
	if n := primaryCalls.Load(); n != 0 {
		t.Fatalf("overloaded explain made %d primary estimator calls, want 0", n)
	}
	q, err := sqlparse.Parse(db.Schema, testSQL(0))
	if err != nil {
		t.Fatal(err)
	}
	want, err := engine.New(db).Explain(q, hist)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("overloaded explain plan:\n%s\nwant the histogram's:\n%s", got, want)
	}
}

// TestExplainCountedServed: an admitted EXPLAIN is counted in its tenant's
// server.served, so the tenants' served sum to the admitted requests.
func TestExplainCountedServed(t *testing.T) {
	s := mustServer(t, histConfig(testutil.TinyDB()))
	if _, err := s.Explain(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)}); err != nil {
		t.Fatalf("explain: %v", err)
	}
	m := s.MetricsSnapshot()
	if got := m.Counters["server.admission.admitted"]; got != 1 {
		t.Fatalf("server.admission.admitted = %d, want 1", got)
	}
	if got := m.Counters["tenant.alpha.server.served"]; got != 1 {
		t.Fatalf("tenant.alpha.server.served = %d, want 1", got)
	}
}

// TestQueryDeadlineUnmeetableAtServerLevel drives the server-level path:
// capacity occupied, seeded wait prediction, short request timeout → typed
// 504 with the tenant's shed.deadline counter incremented and no semaphore
// consumption.
func TestQueryDeadlineUnmeetableAtServerLevel(t *testing.T) {
	db := testutil.TinyDB()
	g := newGate()
	cfg := histConfig(db)
	cfg.MaxConcurrent = 1
	s := mustServer(t, cfg)
	s.execWrap = g.wrap

	first := make(chan error, 1)
	go func() {
		_, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)})
		first <- err
	}()
	select {
	case <-g.announce:
	case <-time.After(10 * time.Second):
		t.Fatal("first query never reached the executor")
	}
	s.adm.mu.Lock()
	s.adm.waitEWMA = time.Second
	s.adm.mu.Unlock()

	_, err := s.Query(context.Background(), QueryRequest{Tenant: "beta", SQL: testSQL(1), Timeout: 5 * time.Millisecond})
	if !errors.Is(err, ErrDeadlineUnmeetable) {
		t.Fatalf("err = %v, want ErrDeadlineUnmeetable", err)
	}
	used, queued := s.adm.stats()
	if used != 1 || queued != 0 {
		t.Fatalf("used=%d queued=%d; rejection consumed admission state", used, queued)
	}
	if n := s.MetricsSnapshot().Counters["tenant.beta.server.shed.deadline"]; n != 1 {
		t.Fatalf("beta shed.deadline = %d, want 1", n)
	}

	close(g.release)
	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
}
