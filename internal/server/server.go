// Package server is the long-running multi-tenant SQL serving subsystem: it
// wraps the single-query engine.Engine in everything a resident process
// needs — admission control with load shedding, per-tenant namespaces
// (estimate caches, resource limits, metrics), sessions with parse-once
// prepared statements, zero-downtime model hot-swap, and graceful
// drain-on-shutdown. The engine stays a pure library; this package owns all
// the lifecycle.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/modelio"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/storage"
)

// ErrUnknownTenant rejects a request naming a tenant the server was not
// configured with (HTTP 404).
var ErrUnknownTenant = errors.New("server: unknown tenant")

// ErrBadQuery wraps SQL parse failures so transport layers can classify
// them as client errors (HTTP 400) without string matching.
var ErrBadQuery = errors.New("server: bad query")

// TenantConfig declares one tenant's namespace: its admission weight (share
// of the concurrency capacity one of its queries occupies), its per-query
// resource limits, and its request-rate envelope.
type TenantConfig struct {
	Name   string
	Weight int64         // admission weight per query; <=0 means 1
	Limits engine.Limits // per-query resource limits for this tenant
	// RateQPS is the tenant's sustained request rate; requests beyond it are
	// rejected with ErrRateLimited (HTTP 429 + Retry-After) before touching
	// the shared admission queue. <=0 disables rate limiting for the tenant.
	RateQPS float64
	// RateBurst is the token-bucket depth — how many requests may arrive
	// back-to-back before pacing kicks in (default 1 when RateQPS is set).
	RateBurst int
}

// Config configures a Server. DB and at least one tenant are required.
type Config struct {
	DB  *storage.Database
	Enc *encode.Encoder // required for model modes and hot-swap

	// Mode selects the serving estimator stack: ModeHistogram, ModeLPCE, or
	// ModeLPCER. Empty defaults to ModeHistogram without Models and ModeLPCER
	// with them.
	Mode string
	// Models is the initial model set (served as version "boot")
	// for the model modes; nil is valid only for ModeHistogram. Later sets
	// arrive via SwapModels.
	Models *modelio.Set

	Tenants []TenantConfig

	// MaxConcurrent is the admission capacity in weight units (default 4).
	MaxConcurrent int64
	// MaxQueue bounds the admission wait queue; an overflowing queue rejects
	// with ErrQueueFull (default 16; negative means no queueing at all). The
	// health ladder's thresholds derive from it: degraded at half the
	// bound, overloaded at nine tenths.
	MaxQueue int
	// DefaultTimeout bounds each query's wall time when the request carries
	// no tighter deadline (default 30s).
	DefaultTimeout time.Duration
	// CacheCapacity bounds each tenant's estimate cache (entries across all
	// shards; default 65536, negative leaves the caches unbounded).
	CacheCapacity int

	// Budget is the engine's per-query work budget, applied to every query.
	Budget int64
}

// Serving constants: sessions idle past sessionTTL expire, the janitor
// sweeps them every janitorInterval, and each tenant observer retains at
// most traceCap query traces and CE evaluation rows.
const (
	sessionTTL      = 15 * time.Minute
	janitorInterval = 30 * time.Second
	traceCap        = 4096
)

// tenant is one configured namespace at runtime.
type tenant struct {
	name   string
	weight int64
	limits engine.Limits
	// obs is the tenant's private observer: metrics, traces, and CE
	// evaluation accumulate here and surface under "tenant.<name>." in the
	// merged snapshot. Isolation means one tenant's workload cannot perturb
	// another's numbers.
	obs *obs.Observer

	errs     *obs.Counter
	degraded *obs.Counter
	latency  *obs.Histogram

	// bucket is the tenant's token-bucket rate limiter; nil when the tenant
	// has no configured rate.
	bucket *tokenBucket
	// served counts admitted requests (queries and EXPLAINs, whatever their
	// outcome) as they release their slot, so the tenants' served sum to
	// server.admission.admitted; the shed counters tally each rejection
	// class so a scrape shows shed-vs-served per tenant exactly.
	served       *obs.Counter
	shedRate     *obs.Counter // ErrRateLimited
	shedQueue    *obs.Counter // ErrQueueFull
	shedClosed   *obs.Counter // ErrClosed
	shedDeadline *obs.Counter // ErrDeadlineUnmeetable
}

// Server is a resident multi-tenant SQL serving process over one database.
// All methods are safe for concurrent use.
type Server struct {
	cfg     Config
	eng     *engine.Engine
	tenants map[string]*tenant
	adm     *admitter
	sess    *sessionTable
	health  *healthMachine
	models  atomic.Pointer[servingSet]

	// global holds server-wide (tenant-independent) metrics.
	global *obs.Observer
	swaps  *obs.Counter

	// baseCtx is cancelled only on forced shutdown; every query context is
	// additionally bound to it via context.AfterFunc, so a drain deadline
	// can cut in-flight queries loose cooperatively.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	janitorStop chan struct{}
	janitorDone chan struct{}
	closed      atomic.Bool

	// execWrap, when set, intercepts every executor operator: the package's
	// fault-injection tests set it before the first query.
	execWrap exec.WrapFunc
}

// New validates the configuration, builds the per-tenant namespaces,
// installs the initial serving set, and starts the session janitor.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: Config.DB is required")
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("server: at least one tenant is required")
	}
	if cfg.MaxConcurrent <= 0 {
		cfg.MaxConcurrent = 4
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = 16
	}
	if cfg.MaxQueue < 0 {
		cfg.MaxQueue = 0
	}
	if cfg.DefaultTimeout <= 0 {
		cfg.DefaultTimeout = 30 * time.Second
	}
	if cfg.CacheCapacity == 0 {
		cfg.CacheCapacity = 65536
	}

	s := &Server{
		cfg:         cfg,
		eng:         engine.New(cfg.DB),
		tenants:     make(map[string]*tenant, len(cfg.Tenants)),
		global:      obs.NewObserver(),
		janitorStop: make(chan struct{}),
		janitorDone: make(chan struct{}),
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	reg := s.global.Registry()
	s.swaps = reg.Counter("server.model_swaps")
	s.adm = newAdmitter(cfg.MaxConcurrent, cfg.MaxQueue, reg)
	s.sess = newSessionTable(reg)
	s.health = newHealthMachine(cfg.MaxQueue, reg)
	s.adm.onQueue = s.health.observeQueue

	for _, tc := range cfg.Tenants {
		if tc.Name == "" {
			return nil, fmt.Errorf("server: tenant with empty name")
		}
		if _, dup := s.tenants[tc.Name]; dup {
			return nil, fmt.Errorf("server: duplicate tenant %q", tc.Name)
		}
		if tc.Weight <= 0 {
			tc.Weight = 1
		}
		to := obs.NewObserver()
		to.SetTraceCap(traceCap)
		to.CE().SetCap(traceCap)
		treg := to.Registry()
		tn := &tenant{
			name:         tc.Name,
			weight:       tc.Weight,
			limits:       tc.Limits,
			obs:          to,
			errs:         treg.Counter("server.query_errors"),
			degraded:     treg.Counter("server.queries_degraded"),
			latency:      treg.Histogram("server.query_ms"),
			served:       treg.Counter("server.served"),
			shedRate:     treg.Counter("server.shed.rate_limited"),
			shedQueue:    treg.Counter("server.shed.queue_full"),
			shedClosed:   treg.Counter("server.shed.closed"),
			shedDeadline: treg.Counter("server.shed.deadline"),
		}
		if tc.RateQPS > 0 {
			tn.bucket = newTokenBucket(tc.RateQPS, tc.RateBurst, treg.Counter("server.rate_limited"))
		}
		s.tenants[tc.Name] = tn
	}

	initial, err := s.setFromArtifacts("boot", cfg.Models)
	if err != nil {
		return nil, err
	}
	s.models.Store(initial)

	go s.janitor()
	return s, nil
}

// janitor periodically expires idle sessions until Close stops it.
func (s *Server) janitor() {
	defer close(s.janitorDone)
	t := time.NewTicker(janitorInterval)
	defer t.Stop()
	for {
		select {
		case <-s.janitorStop:
			return
		case now := <-t.C:
			s.sess.sweep(now)
		}
	}
}

// QueryRequest is one SQL execution request.
type QueryRequest struct {
	Tenant  string        `json:"tenant"`
	Session string        `json:"session,omitempty"` // empty = stateless, no prepared-statement reuse
	SQL     string        `json:"sql"`
	Timeout time.Duration `json:"-"` // <=0 uses the server default
}

// QueryResult is one successful execution's outcome.
type QueryResult struct {
	Count        int           `json:"count"`
	Reopts       int           `json:"reopts"`
	TimedOut     bool          `json:"timed_out,omitempty"`
	Prepared     bool          `json:"prepared"` // statement served from the session cache
	ModelVersion string        `json:"model_version"`
	Estimator    string        `json:"estimator"`
	Elapsed      time.Duration `json:"elapsed_ns"`
	// HealthState is the server state the query was admitted under.
	HealthState string `json:"health_state,omitempty"`
	// FallbackEstimator marks a query planned by the overload rung (the
	// histogram baseline) rather than the primary stack.
	FallbackEstimator bool `json:"fallback_estimator,omitempty"`
}

// admit is the admission prologue of Query and Explain: the tenant lookup,
// the tenant's token bucket (cheapest rejection, charged to the flooding
// tenant alone), the request's deadline bound to the server lifecycle, then
// a slot on the shared semaphore. Every shed is counted by countShed.
// On success the request runs under qctx and the caller must call done,
// which counts the request served and releases the slot and the deadline.
func (s *Server) admit(ctx context.Context, req QueryRequest) (tn *tenant, qctx context.Context, done func(), err error) {
	tn, ok := s.tenants[req.Tenant]
	if !ok {
		return nil, nil, nil, fmt.Errorf("%w: %q", ErrUnknownTenant, req.Tenant)
	}
	if tn.bucket != nil {
		if ok, after := tn.bucket.take(); !ok {
			err := &RateLimitError{Tenant: tn.name, After: after}
			countShed(tn, err)
			return nil, nil, nil, err
		}
	}
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	qctx, cancel := context.WithTimeout(ctx, timeout)
	// Bind the request to the server lifecycle: a forced shutdown cancels
	// baseCtx, which cancels every in-flight request cooperatively.
	stop := context.AfterFunc(s.baseCtx, cancel)
	if err := s.adm.acquire(qctx, tn.weight); err != nil {
		stop()
		cancel()
		countShed(tn, err)
		return nil, nil, nil, err
	}
	return tn, qctx, func() {
		tn.served.Inc()
		s.adm.release(tn.weight)
		stop()
		cancel()
	}, nil
}

// countShed attributes an admission rejection to the tenant's per-class
// shed counters. Context expiry while queued is the client's own deadline,
// not a server shed, and is left uncounted.
func countShed(tn *tenant, err error) {
	switch {
	case errors.Is(err, ErrRateLimited):
		tn.shedRate.Inc()
	case errors.Is(err, ErrQueueFull):
		tn.shedQueue.Inc()
	case errors.Is(err, ErrClosed):
		tn.shedClosed.Inc()
	case errors.Is(err, ErrDeadlineUnmeetable):
		tn.shedDeadline.Inc()
	}
}

// rung is the estimator stack one admitted request plans with: the
// serving set's primary stack; without its refiner when the health machine
// reports degraded, which sheds re-optimization (T_R); or, when it reports
// overloaded, the histogram overload rung, which sheds model inference
// (T_I) as well.
type rung struct {
	version  string
	state    HealthState
	est      cardest.Estimator
	estName  string
	refiner  engine.Refiner
	fallback bool
}

// rungFor fixes the request's rung. One atomic load fixes the serving set,
// so estimator, refiner, and cache are mutually consistent even if a swap
// lands mid-flight; the health state is sampled once, so the request's
// whole plan comes from one rung of the ladder. Query and Explain share it,
// so an EXPLAIN shows the plan the same /query would run.
func (s *Server) rungFor(tn *tenant) rung {
	ms := s.models.Load()
	r := rung{version: ms.version, state: s.health.current(), est: ms.caches[tn.name], estName: ms.estName, refiner: ms.refiner}
	if r.state >= StateDegraded {
		r.refiner = nil
	}
	if r.state >= StateOverloaded {
		r.est, r.estName, r.fallback = ms.shed, ms.shed.Name(), true
	}
	return r
}

// Query admits, prepares, and executes one SQL statement for a tenant,
// applying the overload-control ladder in order: the tenant's token bucket
// (cheapest rejection, charged to the flooding tenant alone), deadline-aware
// admission on the shared semaphore, then — for admitted queries — estimator
// routing by health state: overloaded servers plan with the histogram
// baseline and suppress re-optimization instead of paying model inference.
// Admission failures surface as ErrRateLimited / ErrQueueFull / ErrClosed /
// ErrDeadlineUnmeetable; unknown tenants as ErrUnknownTenant; parse errors
// and engine errors pass through typed.
func (s *Server) Query(ctx context.Context, req QueryRequest) (*QueryResult, error) {
	tn, qctx, done, err := s.admit(ctx, req)
	if err != nil {
		return nil, err
	}
	defer done()

	r := s.rungFor(tn)
	sess := s.sess.get(req.Tenant, req.Session)
	q, hit, err := sess.prepare(s.cfg.DB.Schema, req.SQL)
	if err != nil {
		return nil, err
	}

	start := time.Now()
	res, err := s.eng.ExecuteContext(qctx, q, engine.Config{
		Estimator: r.est,
		Refiner:   r.refiner,
		Budget:    s.cfg.Budget,
		Obs:       tn.obs,
		Limits:    tn.limits,
		ExecWrap:  s.execWrap,
	})
	elapsed := time.Since(start)
	tn.latency.Observe(float64(elapsed) / float64(time.Millisecond))
	if err != nil {
		tn.errs.Inc()
		if isResourceErr(err) || errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
			tn.degraded.Inc()
		}
		return nil, err
	}
	return &QueryResult{
		Count:             res.Count,
		Reopts:            res.Reopts,
		TimedOut:          res.TimedOut,
		Prepared:          hit,
		ModelVersion:      r.version,
		Estimator:         r.estName,
		Elapsed:           elapsed,
		HealthState:       r.state.String(),
		FallbackEstimator: r.fallback,
	}, nil
}

// Explain admits and plans (but does not execute) one SQL statement,
// returning the plan Query would run: it is admitted exactly as Query is
// and plans on the same rung of the ladder.
func (s *Server) Explain(ctx context.Context, req QueryRequest) (string, error) {
	tn, _, done, err := s.admit(ctx, req)
	if err != nil {
		return "", err
	}
	defer done()

	r := s.rungFor(tn)
	sess := s.sess.get(req.Tenant, req.Session)
	q, _, err := sess.prepare(s.cfg.DB.Schema, req.SQL)
	if err != nil {
		return "", err
	}
	return s.eng.Explain(q, r.est)
}

// Close drains and shuts the server down: new admissions are refused
// immediately, queued waiters fail with ErrClosed, and in-flight queries
// run to completion. If ctx expires before the drain completes, in-flight
// queries are cancelled cooperatively (they observe context.Canceled) and
// Close still waits for them to unwind — it never returns with queries
// running. Safe to call more than once.
func (s *Server) Close(ctx context.Context) error {
	if !s.closed.CompareAndSwap(false, true) {
		<-s.adm.drained
		<-s.janitorDone
		return nil
	}
	s.adm.close()
	var err error
	select {
	case <-s.adm.drained:
	case <-ctx.Done():
		// Forced: cut the in-flight queries loose and wait for the unwind.
		err = ctx.Err()
		s.baseCancel()
		<-s.adm.drained
	}
	s.baseCancel()
	close(s.janitorStop)
	<-s.janitorDone
	return err
}

// Tenants returns the configured tenant names, sorted.
func (s *Server) Tenants() []string {
	names := make([]string, 0, len(s.tenants))
	for name := range s.tenants { //detlint:ignore — sorted immediately below
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// TenantCache returns the named tenant's current estimate cache (nil for
// unknown tenants). The cache belongs to the current serving set and is
// replaced wholesale on hot-swap.
func (s *Server) TenantCache(name string) *cardest.Cache {
	ms := s.models.Load()
	if ms == nil {
		return nil
	}
	return ms.caches[name]
}

// MetricsSnapshot merges the server-wide registry with every tenant's
// registry, the tenant metrics prefixed "tenant.<name>.", so one scrape
// shows global admission state next to per-tenant attribution.
func (s *Server) MetricsSnapshot() obs.MetricsSnapshot {
	out := s.global.Registry().Snapshot()
	if out.Counters == nil {
		out.Counters = map[string]int64{}
	}
	if out.Gauges == nil {
		out.Gauges = map[string]float64{}
	}
	if out.Histograms == nil {
		out.Histograms = map[string]obs.HistSummary{}
	}
	// Aggregation into key-disjoint map entries; iteration order cannot
	// leak into the merged snapshot.
	for name, tn := range s.tenants { //detlint:ignore — order-independent merge
		snap := tn.obs.Registry().Snapshot()
		prefix := "tenant." + name + "."
		for k, v := range snap.Counters { //detlint:ignore — order-independent merge
			out.Counters[prefix+k] = v
		}
		for k, v := range snap.Gauges { //detlint:ignore — order-independent merge
			out.Gauges[prefix+k] = v
		}
		for k, v := range snap.Histograms { //detlint:ignore — order-independent merge
			out.Histograms[prefix+k] = v
		}
	}
	return out
}

// Health is the healthz payload.
type Health struct {
	Status       string `json:"status"` // "ok", "degraded", "overloaded", or "closing"
	ModelVersion string `json:"model_version"`
	Inflight     int64  `json:"inflight_weight"`
	Queued       int    `json:"queued"`
	Sessions     int    `json:"sessions"`
	Tenants      int    `json:"tenants"`
	// State is the health state machine's current level; Status mirrors it
	// unless the server is closing ("ok" when healthy, for compatibility).
	State string `json:"state"`
	// PredictedWaitMs is the admission queue-wait EWMA driving
	// deadline-aware rejection.
	PredictedWaitMs float64 `json:"predicted_wait_ms"`
}

// isResourceErr reports whether err is a typed per-query resource-limit
// violation (graceful degradation, not a server fault).
func isResourceErr(err error) bool {
	var re *exec.ResourceError
	return errors.As(err, &re)
}

// Health reports liveness, the health state, and the key serving gauges.
// Each call re-evaluates the state machine, so a polled idle server steps
// back down to healthy even with no queries arriving to observe.
func (s *Server) Health() Health {
	s.health.tick()
	used, queued := s.adm.stats()
	state := s.health.current()
	status := "ok"
	if state != StateHealthy {
		status = state.String()
	}
	if s.closed.Load() {
		status = "closing"
	}
	return Health{
		Status:          status,
		ModelVersion:    s.ModelVersion(),
		Inflight:        used,
		Queued:          queued,
		Sessions:        s.sess.count(),
		Tenants:         len(s.tenants),
		State:           state.String(),
		PredictedWaitMs: float64(s.adm.predictedWait()) / float64(time.Millisecond),
	}
}

// HealthState returns the health state machine's current level — the
// embedding hook the soak harness and experiment drivers poll.
func (s *Server) HealthState() HealthState {
	s.health.tick()
	return s.health.current()
}
