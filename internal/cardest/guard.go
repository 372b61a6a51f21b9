package cardest

import (
	"fmt"
	"math"
	"sync"
	"time"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// Guard fault kinds, used in GuardEvent.Kind and the obs counter names.
const (
	FaultPanic   = "panic"   // inner estimator panicked; fallback value served
	FaultGarbage = "garbage" // NaN, ±Inf, or ≤0 estimate; fallback value served
	FaultClamp   = "clamp"   // estimate above the cross-product bound; clamped
	FaultLatency = "latency" // call exceeded the latency budget; value kept
)

// GuardConfig tunes a Guard. The zero value of every field selects a safe
// default, so Guard{} wiring only needs a Fallback.
type GuardConfig struct {
	// Fallback serves estimates while the breaker is open and substitutes
	// for unusable (panicked/garbage) answers. Deployments pass the
	// PostgreSQL-style histogram baseline; a nil Fallback defaults to a
	// Fixed estimator so the guard never dereferences nil mid-recovery.
	Fallback Estimator
	// Bound, when non-nil, caps each estimate: values above Bound(q, mask)
	// are clamped to it and counted as faults. CrossProductBound builds the
	// natural ceiling — no join result can exceed the cross product of its
	// base tables.
	Bound func(q *query.Query, mask query.BitSet) float64
	// LatencyBudget, when positive, marks calls whose inner latency exceeds
	// it as faults. The value is still returned (it is valid, just late);
	// repeated overruns trip the breaker onto the cheap fallback.
	LatencyBudget time.Duration
	// TripAfter is how many consecutive faults open the circuit breaker
	// (default 3).
	TripAfter int
	// Cooldown is how many calls the open breaker serves from the fallback
	// before letting a single probe through to the inner estimator (default
	// 64). A clean probe closes the breaker; a faulty one restarts the
	// cooldown.
	Cooldown int
	// ProbeInterval, when positive, adds a time-based half-open path to the
	// breaker: an open breaker admits a recovery probe once the interval has
	// elapsed since the trip (or the last failed probe) even if fewer than
	// Cooldown fallback calls have arrived. Without it a tripped guard on a
	// low-traffic path can stay on the fallback long after the inner
	// estimator's latency recovered — the cooldown is counted in calls, and
	// the calls may never come.
	ProbeInterval time.Duration
	// Registry, when non-nil, interns the guard's counters
	// (cardest.guard.*) so trips and recoveries surface in obs reports.
	Registry *obs.Registry
	// OnDegrade, when non-nil, receives one event per fault, breaker trip,
	// and recovery. It may be called concurrently.
	OnDegrade func(GuardEvent)
}

// GuardEvent is one degradation event: a recovered fault, a breaker trip,
// or a recovery back to the inner estimator.
type GuardEvent struct {
	// Kind is one of the Fault* constants, "breaker-open", or
	// "breaker-close".
	Kind string
	// Estimator is the guarded (inner) estimator's name.
	Estimator string
	// Detail narrates the event for logs.
	Detail string
}

// GuardStats is a snapshot of a guard's fault accounting.
type GuardStats struct {
	Panics        int64
	Garbage       int64
	Clamps        int64
	LatencyFaults int64
	Trips         int64
	Recoveries    int64
	FallbackCalls int64
	// Open reports whether the breaker is currently serving the fallback.
	Open bool
}

// Guard hardens an estimator for production use, following the TiCard
// deployability argument: a learned model may panic, emit garbage, or turn
// slow, and none of that may take the engine down. The guard
//
//   - recovers panics from the inner estimator and serves the fallback's
//     value for that call;
//   - clamps insane estimates — NaN, ±Inf, non-positive, or beyond the
//     cross-product bound;
//   - flags calls that exceed a per-call latency budget;
//   - trips a circuit breaker after TripAfter consecutive faults, degrading
//     every call to the fallback estimator until a cooldown-spaced probe of
//     the inner estimator succeeds again.
//
// Every fault, trip, and recovery bumps an obs counter and emits a
// GuardEvent. A Guard is safe for concurrent use and adds two short mutex
// sections per call; the inner estimator runs outside the lock.
//
// Note the Estimator determinism contract ("same value for the same (query,
// subset) pair") holds through a Guard only while the inner estimator is
// healthy: once faults occur, answers depend on breaker state and so on
// call order. Guarded runs trade bit-exact reproducibility for survival —
// result correctness is unaffected, since estimates only steer plan choice.
type Guard struct {
	inner Estimator
	cfg   GuardConfig

	mu        sync.Mutex
	faults    int       // consecutive fault count while closed
	open      bool      // breaker state
	cool      int       // fallback calls remaining before a probe
	probing   bool      // one probe in flight
	nextProbe time.Time // earliest time-based half-open probe (ProbeInterval)
	now       func() time.Time

	stats GuardStats

	cPanic, cGarbage, cClamp, cLatency  *obs.Counter
	cTrips, cRecoveries, cFallbackCalls *obs.Counter
}

// NewGuard wraps inner. See GuardConfig for the defaults applied.
func NewGuard(inner Estimator, cfg GuardConfig) *Guard {
	if cfg.Fallback == nil {
		cfg.Fallback = Fixed{Value: 1000, Label: "guard-default-fallback"}
	}
	if cfg.TripAfter <= 0 {
		cfg.TripAfter = 3
	}
	if cfg.Cooldown <= 0 {
		cfg.Cooldown = 64
	}
	g := &Guard{inner: inner, cfg: cfg, now: time.Now}
	if r := cfg.Registry; r != nil {
		g.cPanic = r.Counter("cardest.guard.panics")
		g.cGarbage = r.Counter("cardest.guard.garbage")
		g.cClamp = r.Counter("cardest.guard.clamps")
		g.cLatency = r.Counter("cardest.guard.latency_faults")
		g.cTrips = r.Counter("cardest.guard.breaker_trips")
		g.cRecoveries = r.Counter("cardest.guard.breaker_recoveries")
		g.cFallbackCalls = r.Counter("cardest.guard.fallback_calls")
	}
	return g
}

// Name implements Estimator; the guard is transparent in traces and CE
// reports.
func (g *Guard) Name() string { return g.inner.Name() }

// Stats snapshots the guard's fault accounting.
func (g *Guard) Stats() GuardStats {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := g.stats
	s.Open = g.open
	return s
}

// EstimateSubset implements Estimator with the full guardrail stack.
func (g *Guard) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	probe := false
	g.mu.Lock()
	if g.open {
		allow := !g.probing && g.cool <= 0
		if !allow && !g.probing && g.cfg.ProbeInterval > 0 && !g.now().Before(g.nextProbe) {
			// Half-open by wall clock: enough time has passed since the trip
			// (or the last failed probe) that the inner estimator deserves a
			// try, even though the call-counted cooldown has not elapsed.
			allow = true
		}
		if !allow {
			g.cool--
			g.stats.FallbackCalls++
			g.mu.Unlock()
			g.cFallbackCalls.Inc()
			return g.cfg.Fallback.EstimateSubset(q, mask)
		}
		g.probing = true
		probe = true
	}
	g.mu.Unlock()

	v, fault := g.call(q, mask)
	if fault == "" {
		switch {
		case math.IsNaN(v) || math.IsInf(v, 0) || v <= 0:
			fault = FaultGarbage
		case g.cfg.Bound != nil:
			if max := g.cfg.Bound(q, mask); max > 0 && v > max {
				fault = FaultClamp
				v = max
			}
		}
	}
	if fault == "" {
		g.onSuccess(probe)
		return v
	}
	g.onFault(fault, probe)
	switch fault {
	case FaultClamp, FaultLatency:
		return v // the value itself is usable
	default: // panic, garbage: no usable value from the inner estimator
		return g.cfg.Fallback.EstimateSubset(q, mask)
	}
}

// call invokes the inner estimator with panic recovery and latency timing.
func (g *Guard) call(q *query.Query, mask query.BitSet) (v float64, fault string) {
	defer func() {
		if r := recover(); r != nil {
			v, fault = math.NaN(), FaultPanic
		}
	}()
	start := time.Now()
	v = g.inner.EstimateSubset(q, mask)
	if b := g.cfg.LatencyBudget; b > 0 && time.Since(start) > b {
		fault = FaultLatency
	}
	return v, fault
}

// onSuccess resets the consecutive-fault count and, after a clean probe,
// closes the breaker.
func (g *Guard) onSuccess(probe bool) {
	closed := false
	g.mu.Lock()
	g.faults = 0
	if probe {
		g.probing = false
		g.open = false
		g.stats.Recoveries++
		closed = true
	}
	g.mu.Unlock()
	if closed {
		g.cRecoveries.Inc()
		g.emit("breaker-close", "probe succeeded; serving the inner estimator again")
	}
}

// onFault books one fault, restarts the cooldown after a failed probe, and
// trips the breaker once TripAfter consecutive faults accumulate.
func (g *Guard) onFault(kind string, probe bool) {
	tripped := false
	g.mu.Lock()
	switch kind {
	case FaultPanic:
		g.stats.Panics++
	case FaultGarbage:
		g.stats.Garbage++
	case FaultClamp:
		g.stats.Clamps++
	case FaultLatency:
		g.stats.LatencyFaults++
	}
	g.faults++
	switch {
	case probe:
		g.probing = false
		g.cool = g.cfg.Cooldown
		g.armProbeLocked()
	case !g.open && g.faults >= g.cfg.TripAfter:
		g.open = true
		g.cool = g.cfg.Cooldown
		g.stats.Trips++
		g.armProbeLocked()
		tripped = true
	}
	g.mu.Unlock()

	switch kind {
	case FaultPanic:
		g.cPanic.Inc()
	case FaultGarbage:
		g.cGarbage.Inc()
	case FaultClamp:
		g.cClamp.Inc()
	case FaultLatency:
		g.cLatency.Inc()
	}
	g.emit(kind, "recovered estimator fault")
	if tripped {
		g.cTrips.Inc()
		g.emit("breaker-open", fmt.Sprintf("%d consecutive faults; degrading to %s",
			g.cfg.TripAfter, g.cfg.Fallback.Name()))
	}
}

// armProbeLocked schedules the next time-based half-open probe. Called with
// the mutex held, after a trip or a failed probe.
func (g *Guard) armProbeLocked() {
	if g.cfg.ProbeInterval > 0 {
		g.nextProbe = g.now().Add(g.cfg.ProbeInterval)
	}
}

func (g *Guard) emit(kind, detail string) {
	if g.cfg.OnDegrade != nil {
		g.cfg.OnDegrade(GuardEvent{Kind: kind, Estimator: g.inner.Name(), Detail: detail})
	}
}

// CrossProductBound returns a Bound function for GuardConfig that caps each
// subset's estimate at the cross product of its base-table sizes — the
// tightest data-independent upper bound any equi-join result can reach.
func CrossProductBound(db *storage.Database) func(*query.Query, query.BitSet) float64 {
	return func(q *query.Query, mask query.BitSet) float64 {
		prod := 1.0
		for _, i := range mask.Indices() {
			if i >= len(q.Tables) {
				return 0 // foreign mask; no bound
			}
			prod *= float64(db.Table(q.Tables[i]).NumRows())
			if prod > 1e30 {
				return 1e30 // saturate before float overflow
			}
		}
		return prod
	}
}
