package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/baselines"
	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/modelio"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// Shared fixture: the tiny database plus a trained model artifact set,
// built once per test binary (training dominates the suite's runtime).
var (
	fixOnce sync.Once
	fixDB   *storage.Database
	fixEnc  *encode.Encoder
	fixSet  *modelio.Set
)

func fixture(t *testing.T) (*storage.Database, *encode.Encoder, *modelio.Set) {
	t.Helper()
	fixOnce.Do(func() {
		fixDB = testutil.TinyDB()
		fixEnc = encode.NewEncoder(fixDB.Schema)
		g := workload.NewGenerator(fixDB, 61)
		queries := g.QueriesRange(30, 2, 3)
		samples, _ := core.CollectSamples(fixDB, histogram.NewEstimator(fixDB), queries, 50_000_000)
		logMax := core.MaxLogCard(samples)
		base := core.TrainConfig{Hidden: 8, OutWidth: 8, Epochs: 1, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 41}
		student := core.TrainConfig{Hidden: 6, OutWidth: 6, Epochs: 1, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 41}
		lpcei := core.TrainLPCEI(core.LPCEIConfig{Teacher: base, Student: student}, fixEnc, samples, logMax)
		fixSet = &modelio.Set{
			LPCEI: lpcei,
			// LPCE-R at LPCE-I's width: the student is the content module.
			Refiner: core.TrainRefiner(core.RefinerConfig{
				Kind: core.RefinerFull, Base: student, AdjustEpochs: 1, PrefixesPerSample: 1,
			}, lpcei.Model, core.TrainTreeModel(student, fixEnc, samples, logMax, fixDB), fixEnc, fixDB, samples, logMax),
			TLSTM:    baselines.TrainTLSTM(base, fixEnc, samples, logMax).Model,
			FlowLoss: baselines.TrainFlowLoss(base, fixEnc, samples, logMax).Model,
			MSCN:     baselines.TrainMSCN(baselines.MSCNConfig{Hidden: 8, Epochs: 1, Batch: 32, LR: 3e-3, Seed: 41}, fixDB.Schema, samples, logMax),
		}
	})
	return fixDB, fixEnc, fixSet
}

// histConfig is the base histogram-mode server config over the tiny
// database with two tenants, no models needed.
func histConfig(db *storage.Database) Config {
	return Config{
		DB:   db,
		Mode: ModeHistogram,
		Tenants: []TenantConfig{
			{Name: "alpha", Weight: 1},
			{Name: "beta", Weight: 1},
		},
		MaxConcurrent:  4,
		MaxQueue:       16,
		DefaultTimeout: 30 * time.Second,
		CacheCapacity:  4096,
	}
}

func mustServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(func() { _ = s.Close(context.Background()) })
	return s
}

func testSQL(i int) string {
	// Three distinct shapes over the tiny IMDb-style schema, all cheap.
	switch i % 3 {
	case 0:
		return "SELECT COUNT(*) FROM title, movie_companies WHERE movie_companies.movie_id = title.id AND title.production_year > 1990"
	case 1:
		return "SELECT COUNT(*) FROM title, movie_info WHERE movie_info.movie_id = title.id AND movie_info.info_type_id < 5"
	default:
		return "SELECT COUNT(*) FROM title, movie_companies, movie_info WHERE movie_companies.movie_id = title.id AND movie_info.movie_id = title.id AND title.production_year > 1985"
	}
}

// TestServerConcurrentTenantsIsolated runs two tenants' workloads
// concurrently and asserts results match direct engine execution, metrics
// attribute per tenant, and the estimate caches are namespace-isolated.
func TestServerConcurrentTenantsIsolated(t *testing.T) {
	db := testutil.TinyDB()
	s := mustServer(t, histConfig(db))

	// Direct-engine oracle per statement shape.
	eng := engine.New(db)
	hist := histogram.NewEstimator(db)
	oracle := make(map[string]int)
	for i := 0; i < 3; i++ {
		sql := testSQL(i)
		q, _, err := (&session{prepared: map[string]*query.Query{}}).prepare(db.Schema, sql)
		if err != nil {
			t.Fatalf("parse %q: %v", sql, err)
		}
		res, err := eng.Execute(q, engine.Config{Estimator: hist})
		if err != nil {
			t.Fatalf("oracle %q: %v", sql, err)
		}
		oracle[sql] = res.Count
	}

	const perTenant = 30
	run := func(tenant string) []error {
		return testutil.RunEach(context.Background(), perTenant, 4, func(i int) error {
			sql := testSQL(i)
			res, err := s.Query(context.Background(), QueryRequest{
				Tenant: tenant, Session: fmt.Sprintf("%s-%d", tenant, i%2), SQL: sql,
			})
			if err != nil {
				return err
			}
			if res.Count != oracle[sql] {
				return fmt.Errorf("%s query %d: count %d, oracle %d", tenant, i, res.Count, oracle[sql])
			}
			return nil
		})
	}
	var wg sync.WaitGroup
	errsByTenant := make([][]error, 2)
	for ti, tenant := range []string{"alpha", "beta"} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errsByTenant[ti] = run(tenant)
		}()
	}
	wg.Wait()
	for ti, errs := range errsByTenant {
		for i, err := range errs {
			if err != nil {
				t.Fatalf("tenant %d query %d: %v", ti, i, err)
			}
		}
	}

	snap := s.MetricsSnapshot()
	for _, tenant := range []string{"alpha", "beta"} {
		key := "tenant." + tenant + ".server.served"
		if got := snap.Counters[key]; got != perTenant {
			t.Fatalf("%s = %d, want %d", key, got, perTenant)
		}
		if errs := snap.Counters["tenant."+tenant+".server.query_errors"]; errs != 0 {
			t.Fatalf("tenant %s reported %d errors", tenant, errs)
		}
	}
	if admitted := snap.Counters["server.admission.admitted"]; admitted != 2*perTenant {
		t.Fatalf("admitted = %d, want %d", admitted, 2*perTenant)
	}

	// Cache isolation: the tenants ran identical statements, so each cache
	// served its own tenant's repeats — per-tenant hit counters are
	// populated independently and the cache objects are distinct.
	if s.TenantCache("alpha") == s.TenantCache("beta") {
		t.Fatal("tenants share an estimate cache")
	}
	for _, tenant := range []string{"alpha", "beta"} {
		c := s.TenantCache(tenant)
		hits, misses := c.Stats()
		if misses == 0 || hits == 0 {
			t.Fatalf("tenant %s cache hits=%d misses=%d; want both > 0", tenant, hits, misses)
		}
	}
}

// gate blocks every wrapped operator's Open until released, holding
// queries inside the engine (and their admission weight) under test
// control. Open also unblocks on context cancellation, like any
// cooperative operator.
type gate struct {
	release  chan struct{}
	announce chan struct{} // one token per operator entering
}

func newGate() *gate {
	return &gate{release: make(chan struct{}), announce: make(chan struct{}, 1024)}
}

func (g *gate) wrap(ctx *exec.Ctx, op exec.BatchOperator, n *plan.Node) exec.BatchOperator {
	return &gatedOp{inner: op, g: g}
}

type gatedOp struct {
	inner exec.BatchOperator
	g     *gate
}

func (o *gatedOp) Open(ctx *exec.Ctx) error {
	select {
	case o.g.announce <- struct{}{}:
	default:
	}
	var done <-chan struct{}
	if ctx.Context != nil {
		done = ctx.Context.Done()
	}
	select {
	case <-o.g.release:
	case <-done:
		return ctx.Context.Err()
	}
	return o.inner.Open(ctx)
}

func (o *gatedOp) NextBatch(ctx *exec.Ctx) (*exec.Batch, error) { return o.inner.NextBatch(ctx) }
func (o *gatedOp) Close()                                       { o.inner.Close() }

// TestServerQueueOverflowRejects asserts the bounded wait queue sheds load
// with the typed ErrQueueFull once capacity and queue are both full.
func TestServerQueueOverflowRejects(t *testing.T) {
	db := testutil.TinyDB()
	g := newGate()
	cfg := histConfig(db)
	cfg.MaxConcurrent = 1
	cfg.MaxQueue = 1
	s := mustServer(t, cfg)
	s.execWrap = g.wrap

	// Query 1 occupies the only slot, blocked at the gate.
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

	// Query 2 waits in the queue (capacity 1); fire it and give it time to
	// enqueue before the overflow probe.
	second := make(chan error, 1)
	go func() {
		_, err := s.Query(context.Background(), QueryRequest{Tenant: "beta", SQL: testSQL(1)})
		second <- err
	}()
	waitCond(t, 5*time.Second, func() bool {
		_, queued := s.adm.stats()
		return queued == 1
	}, "second query never enqueued")

	// Query 3 overflows the queue: typed 429.
	_, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(2)})
	if !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow error = %v, want ErrQueueFull", err)
	}
	if statusFor(err) != http.StatusTooManyRequests {
		t.Fatalf("ErrQueueFull maps to %d, want 429", statusFor(err))
	}

	close(g.release)
	if err := <-first; err != nil {
		t.Fatalf("first query: %v", err)
	}
	if err := <-second; err != nil {
		t.Fatalf("second query: %v", err)
	}
	if rej := s.MetricsSnapshot().Counters["server.admission.rejected_queue_full"]; rej != 1 {
		t.Fatalf("rejected_queue_full = %d, want 1", rej)
	}
}

// TestServerCloseDrainsInflight asserts graceful shutdown: Close refuses
// new work immediately but waits for the in-flight query to finish — and
// that query completes successfully.
func TestServerCloseDrainsInflight(t *testing.T) {
	db := testutil.TinyDB()
	g := newGate()
	cfg := histConfig(db)
	s := mustServer(t, cfg)
	s.execWrap = g.wrap

	inflight := make(chan error, 1)
	var res *QueryResult
	go func() {
		r, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)})
		res = r
		inflight <- err
	}()
	select {
	case <-g.announce:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the executor")
	}

	closed := make(chan error, 1)
	go func() { closed <- s.Close(context.Background()) }()

	// New work is refused while the drain waits. An unluckily-timed probe
	// can slip in before the Close goroutine shuts the admission gate; it
	// then blocks at the exec gate until its own short deadline, so retry
	// until the typed refusal appears.
	waitCond(t, 10*time.Second, func() bool {
		_, err := s.Query(context.Background(), QueryRequest{
			Tenant: "beta", SQL: testSQL(1), Timeout: 100 * time.Millisecond,
		})
		return errors.Is(err, ErrClosed)
	}, "admissions not refused during drain")
	select {
	case err := <-closed:
		t.Fatalf("Close returned %v with a query still in flight", err)
	default:
	}

	close(g.release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight query failed during drain: %v", err)
	}
	if res == nil || res.Count < 0 {
		t.Fatal("in-flight query returned no result")
	}
	if err := <-closed; err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// TestServerForcedCloseCancelsInflight asserts that when the drain deadline
// expires, in-flight queries are cut loose cooperatively and Close still
// returns only after they unwound.
func TestServerForcedCloseCancelsInflight(t *testing.T) {
	db := testutil.TinyDB()
	g := newGate() // never released: the query blocks until cancelled
	cfg := histConfig(db)
	s := mustServer(t, cfg)
	s.execWrap = g.wrap

	inflight := make(chan error, 1)
	go func() {
		_, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)})
		inflight <- err
	}()
	select {
	case <-g.announce:
	case <-time.After(10 * time.Second):
		t.Fatal("query never reached the executor")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	err := s.Close(ctx)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("forced Close = %v, want DeadlineExceeded", err)
	}
	qerr := <-inflight
	if !errors.Is(qerr, context.Canceled) {
		t.Fatalf("in-flight query error = %v, want Canceled", qerr)
	}
}

// TestServerHotSwapNeverTorn hammers queries while hot-swapping between two
// estimator stacks whose version labels and estimator names are paired, and
// asserts no query ever observes a mixed (version, estimator) pair — the
// serving set is atomic — and no query fails because of a swap.
func TestServerHotSwapNeverTorn(t *testing.T) {
	db := testutil.TinyDB()
	s := mustServer(t, histConfig(db))
	hist := histogram.NewEstimator(db)

	// Paired stacks: version vN serves an estimator named est-vN.
	s.installEstimator("v1", cardest.FuncEstimator{
		Label: "est-v1",
		Fn:    hist.EstimateSubset,
	}, nil)

	stop := make(chan struct{})
	var swapper sync.WaitGroup
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		n := 1
		for {
			select {
			case <-stop:
				return
			default:
			}
			n++
			v := fmt.Sprintf("v%d", n)
			s.installEstimator(v, cardest.FuncEstimator{Label: "est-" + v, Fn: hist.EstimateSubset}, nil)
			time.Sleep(200 * time.Microsecond)
		}
	}()

	errs := testutil.RunEach(context.Background(), 200, 8, func(i int) error {
		res, err := s.Query(context.Background(), QueryRequest{
			Tenant: []string{"alpha", "beta"}[i%2], SQL: testSQL(i),
		})
		if err != nil {
			return fmt.Errorf("query %d failed under swap load: %w", i, err)
		}
		if want := "est-" + res.ModelVersion; res.Estimator != want {
			return fmt.Errorf("torn serving set: version %q served estimator %q", res.ModelVersion, res.Estimator)
		}
		return nil
	})
	close(stop)
	swapper.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if swaps := s.MetricsSnapshot().Counters["server.model_swaps"]; swaps < 2 {
		t.Fatalf("only %d swaps happened; the test raced nothing", swaps)
	}
}

// TestServerSwapModelsFromArtifacts round-trips a real artifact directory
// through SwapModels: the server boots on histograms and hot-swaps to
// LPCE-R, after which queries report the new version and estimator.
func TestServerSwapModelsFromArtifacts(t *testing.T) {
	db, enc, set := fixture(t)
	dir := t.TempDir() + "/v2"
	if err := set.Save(dir, enc); err != nil {
		t.Fatalf("save artifacts: %v", err)
	}

	cfg := histConfig(db)
	cfg.Enc = enc
	cfg.Mode = "" // histogram boot (no Models), LPCE-R after swap
	s := mustServer(t, cfg)

	res, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)})
	if err != nil {
		t.Fatalf("pre-swap query: %v", err)
	}
	preCount := res.Count
	if res.ModelVersion != "boot" {
		t.Fatalf("boot version = %q", res.ModelVersion)
	}

	s.cfg.Mode = ModeLPCER
	old, cur, err := s.SwapModels(dir, "")
	if err != nil {
		t.Fatalf("SwapModels: %v", err)
	}
	if old != "boot" || cur != "v2" {
		t.Fatalf("swap returned old=%q cur=%q", old, cur)
	}

	res, err = s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(0)})
	if err != nil {
		t.Fatalf("post-swap query: %v", err)
	}
	if res.ModelVersion != "v2" || !strings.Contains(res.Estimator, "lpce") {
		t.Fatalf("post-swap version=%q estimator=%q", res.ModelVersion, res.Estimator)
	}
	if res.Count != preCount {
		t.Fatalf("swap changed the answer: %d vs %d", res.Count, preCount)
	}

	// A bogus directory must be rejected without disturbing serving.
	if _, _, err := s.SwapModels(t.TempDir(), "broken"); err == nil {
		t.Fatal("swap of an empty dir succeeded")
	}
	if v := s.ModelVersion(); v != "v2" {
		t.Fatalf("failed swap changed serving version to %q", v)
	}
}

// TestServerCloseGoroutineLeakFree asserts a full create→serve→close cycle
// returns the process to its original goroutine count.
func TestServerCloseGoroutineLeakFree(t *testing.T) {
	db := testutil.TinyDB()
	before := runtime.NumGoroutine()

	for cycle := 0; cycle < 3; cycle++ {
		s := mustServer(t, histConfig(db))
		errs := testutil.RunEach(context.Background(), 8, 4, func(i int) error {
			_, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", SQL: testSQL(i)})
			return err
		})
		for _, err := range errs {
			if err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
		}
		if err := s.Close(context.Background()); err != nil {
			t.Fatalf("cycle %d close: %v", cycle, err)
		}
	}

	waitCond(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before
	}, fmt.Sprintf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine()))
}

// TestServerSessionsPrepareOnce asserts prepared-statement reuse within a
// session, isolation across sessions, and TTL expiry.
func TestServerSessionsPrepareOnce(t *testing.T) {
	db := testutil.TinyDB()
	s := mustServer(t, histConfig(db))

	r1, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", Session: "s1", SQL: testSQL(0)})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Prepared {
		t.Fatal("first execution claimed a prepared hit")
	}
	r2, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", Session: "s1", SQL: testSQL(0)})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Prepared {
		t.Fatal("second execution in the same session re-parsed")
	}
	r3, err := s.Query(context.Background(), QueryRequest{Tenant: "alpha", Session: "s2", SQL: testSQL(0)})
	if err != nil {
		t.Fatal(err)
	}
	if r3.Prepared {
		t.Fatal("fresh session saw another session's prepared statement")
	}
	if n := s.sess.count(); n != 2 {
		t.Fatalf("session count = %d, want 2", n)
	}
	if n := s.sess.sweep(time.Now().Add(sessionTTL + time.Second)); n != 2 {
		t.Fatalf("sweep expired %d sessions, want 2", n)
	}
	if n := s.sess.count(); n != 0 {
		t.Fatalf("session count after sweep = %d", n)
	}
}

// TestHTTPEndpoints exercises the JSON front-end end to end over httptest:
// query, explain, error mapping, healthz, metrics, and model swap.
func TestHTTPEndpoints(t *testing.T) {
	db, enc, set := fixture(t)
	dir := t.TempDir() + "/v9"
	if err := set.Save(dir, enc); err != nil {
		t.Fatal(err)
	}
	cfg := histConfig(db)
	cfg.Enc = enc
	s := mustServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	post := func(path string, body any) (*http.Response, map[string]any) {
		t.Helper()
		raw, _ := json.Marshal(body)
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("POST %s: decode: %v", path, err)
		}
		return resp, out
	}

	// Successful query.
	resp, out := post("/query", queryBody{Tenant: "alpha", Session: "h1", SQL: testSQL(0)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/query status %d: %v", resp.StatusCode, out)
	}
	if _, ok := out["count"]; !ok {
		t.Fatalf("/query response missing count: %v", out)
	}

	// Error mapping.
	resp, _ = post("/query", queryBody{Tenant: "alpha", SQL: "SELECT COUNT(*) FROM nope"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status = %d, want 400", resp.StatusCode)
	}
	resp, _ = post("/query", queryBody{Tenant: "ghost", SQL: testSQL(0)})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown tenant status = %d, want 404", resp.StatusCode)
	}

	// Explain returns a rendered plan.
	resp, out = post("/explain", queryBody{Tenant: "alpha", SQL: testSQL(2)})
	if resp.StatusCode != http.StatusOK || !strings.Contains(out["plan"].(string), "plan (estimator=") {
		t.Fatalf("/explain status %d body %v", resp.StatusCode, out)
	}

	// Healthz.
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h Health
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || h.Status != "ok" || h.Tenants != 2 {
		t.Fatalf("healthz = %d %+v", hresp.StatusCode, h)
	}

	// Metrics carries both global and tenant-prefixed series.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if snap.Counters["server.admission.admitted"] == 0 {
		t.Fatalf("metrics missing admission counters: %v", snap.Counters)
	}
	if snap.Counters["tenant.alpha.server.served"] == 0 {
		t.Fatalf("metrics missing tenant series: %v", snap.Counters)
	}

	// Hot swap over HTTP, then verify the served version changed.
	s.cfg.Mode = ModeLPCER
	resp, out = post("/admin/models/swap", map[string]string{"dir": dir})
	if resp.StatusCode != http.StatusOK || out["current"] != "v9" {
		t.Fatalf("/admin/models/swap = %d %v", resp.StatusCode, out)
	}
	resp, out = post("/query", queryBody{Tenant: "alpha", SQL: testSQL(0)})
	if resp.StatusCode != http.StatusOK || out["model_version"] != "v9" {
		t.Fatalf("post-swap query = %d %v", resp.StatusCode, out)
	}
}

// waitCond polls cond until it holds or the deadline expires.
func waitCond(t *testing.T, d time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestCacheCapacityDefaultsBounded: a zero CacheCapacity bounds every tenant
// cache at 65536 entries instead of leaving a resident process's caches
// unbounded; a negative one still opts out.
func TestCacheCapacityDefaultsBounded(t *testing.T) {
	db := testutil.TinyDB()
	for _, tc := range []struct{ in, want int }{{0, 65536}, {-1, -1}, {128, 128}} {
		cfg := histConfig(db)
		cfg.CacheCapacity = tc.in
		if got := mustServer(t, cfg).cfg.CacheCapacity; got != tc.want {
			t.Fatalf("CacheCapacity %d normalized to %d, want %d", tc.in, got, tc.want)
		}
	}
}
