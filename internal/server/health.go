package server

import (
	"sync"
	"time"

	"github.com/lpce-db/lpce/internal/obs"
)

// HealthState is the server's coarse load condition, driving the graceful
// degradation ladder: healthy serves everything, degraded sheds optional
// work (LPCE-R re-optimization checkpoints are suppressed), overloaded
// additionally plans with the histogram baseline instead of the primary
// stack so admitted queries still finish, just with worse plans.
type HealthState int32

const (
	// StateHealthy: full service — learned estimation and re-optimization.
	StateHealthy HealthState = iota
	// StateDegraded: re-optimization suppressed ("server-degraded"); queries
	// still use the primary estimator stack.
	StateDegraded
	// StateOverloaded: estimation routed to the histogram baseline and
	// re-optimization suppressed; admission keeps shedding at the edges.
	StateOverloaded
)

// String implements fmt.Stringer with the healthz vocabulary.
func (s HealthState) String() string {
	switch s {
	case StateDegraded:
		return "degraded"
	case StateOverloaded:
		return "overloaded"
	default:
		return "healthy"
	}
}

// OverloadPolicy sets the health state machine's thresholds. The zero value
// is usable: queue thresholds default from the admission queue bound and
// latency thresholds default to disabled (queue depth alone drives state).
type OverloadPolicy struct {
	// DegradedQueue and OverloadedQueue are admission queue depths at which
	// the state steps up. Defaults: max(1, MaxQueue/2) and
	// max(DegradedQueue+1, MaxQueue*9/10).
	DegradedQueue   int
	OverloadedQueue int
	// DegradedLatencyMs and OverloadedLatencyMs are tail-latency levels (the
	// asymmetric EWMA below, a p99 proxy) at which the state steps up even
	// with a shallow queue. Zero disables latency-driven transitions.
	DegradedLatencyMs   float64
	OverloadedLatencyMs float64
	// Alpha is the EWMA smoothing factor on the way up (default 0.2); decay
	// uses Alpha/4 so the proxy tracks spikes fast and forgets them slowly,
	// like a percentile.
	Alpha float64
	// HoldDown is the minimum dwell before stepping DOWN a level (default
	// 2s; negative disables the dwell). Stepping up is immediate — hysteresis
	// protects against flapping on recovery, not against reacting to load.
	HoldDown time.Duration
	// OnTransition, when set, observes every state change (old, new). Called
	// outside the machine's lock.
	OnTransition func(from, to HealthState)
}

func (p OverloadPolicy) normalized(maxQueue int) OverloadPolicy {
	if p.DegradedQueue <= 0 {
		p.DegradedQueue = maxQueue / 2
		if p.DegradedQueue < 1 {
			p.DegradedQueue = 1
		}
	}
	if p.OverloadedQueue <= 0 {
		p.OverloadedQueue = maxQueue * 9 / 10
	}
	if p.OverloadedQueue <= p.DegradedQueue {
		p.OverloadedQueue = p.DegradedQueue + 1
	}
	if p.Alpha <= 0 || p.Alpha > 1 {
		p.Alpha = 0.2
	}
	if p.HoldDown == 0 {
		p.HoldDown = 2 * time.Second
	}
	if p.HoldDown < 0 {
		p.HoldDown = 0
	}
	return p
}

// healthMachine tracks the server's load condition. Observations arrive
// from two places: the admission layer reports queue depth on every
// enqueue/dequeue, and Query reports each request's latency. The machine
// re-evaluates on every observation and moves STEPWISE — one level per
// evaluation in either direction — so a sudden queue jump still yields the
// full healthy→degraded→overloaded transition sequence for observers, and
// recovery passes back through degraded instead of snapping to healthy.
type healthMachine struct {
	mu     sync.Mutex
	policy OverloadPolicy
	state  HealthState
	// latEWMA is the asymmetric latency EWMA (ms): fast attack, slow decay —
	// a cheap p99 proxy that needs no histogram reads on the hot path.
	latEWMA float64
	// queue is the last reported admission queue depth.
	queue int
	// lastStep is when the state last changed; hold-down gates downward
	// steps on it.
	lastStep time.Time
	now      func() time.Time

	// metrics (nil-safe)
	stateGauge  *obs.Gauge
	transitions *obs.Counter
	degradedSec *obs.Counter // entries into degraded-or-worse
}

func newHealthMachine(p OverloadPolicy, maxQueue int, reg *obs.Registry) *healthMachine {
	h := &healthMachine{
		policy:      p.normalized(maxQueue),
		now:         time.Now,
		stateGauge:  reg.Gauge("server.health.state"),
		transitions: reg.Counter("server.health.transitions"),
		degradedSec: reg.Counter("server.health.degraded_entries"),
	}
	h.lastStep = h.now()
	h.stateGauge.Set(0)
	return h
}

// current returns the present state without re-evaluating.
func (h *healthMachine) current() HealthState {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.state
}

// observeQueue records the admission queue depth and re-evaluates.
func (h *healthMachine) observeQueue(depth int) {
	h.mu.Lock()
	h.queue = depth
	from, to := h.evalLocked()
	h.mu.Unlock()
	h.notify(from, to)
}

// observeLatency records one query's latency (ms) into the asymmetric EWMA
// and re-evaluates.
func (h *healthMachine) observeLatency(ms float64) {
	h.mu.Lock()
	a := h.policy.Alpha
	if ms < h.latEWMA {
		a /= 4 // slow decay: spikes linger, like a tail percentile
	}
	h.latEWMA += a * (ms - h.latEWMA)
	from, to := h.evalLocked()
	h.mu.Unlock()
	h.notify(from, to)
}

// tick re-evaluates with no new observation — Health() calls it so an idle
// server (no queries arriving to observe) still steps down over time.
func (h *healthMachine) tick() {
	h.mu.Lock()
	from, to := h.evalLocked()
	h.mu.Unlock()
	h.notify(from, to)
}

// target computes the level the current signals call for, ignoring
// stepwise movement and hold-down. Called with the lock held.
func (h *healthMachine) targetLocked() HealthState {
	p := h.policy
	switch {
	case h.queue >= p.OverloadedQueue,
		p.OverloadedLatencyMs > 0 && h.latEWMA >= p.OverloadedLatencyMs:
		return StateOverloaded
	case h.queue >= p.DegradedQueue,
		p.DegradedLatencyMs > 0 && h.latEWMA >= p.DegradedLatencyMs:
		return StateDegraded
	default:
		return StateHealthy
	}
}

// evalLocked steps the state at most one level toward the target, applying
// hold-down to downward steps. Returns (from, to); from == to means no
// transition. Called with the lock held.
func (h *healthMachine) evalLocked() (from, to HealthState) {
	from, to = h.state, h.state
	target := h.targetLocked()
	switch {
	case target > h.state:
		to = h.state + 1
	case target < h.state:
		if h.policy.HoldDown > 0 && h.now().Sub(h.lastStep) < h.policy.HoldDown {
			return from, from
		}
		to = h.state - 1
	default:
		return from, from
	}
	h.state = to
	h.lastStep = h.now()
	h.stateGauge.Set(float64(to))
	h.transitions.Inc()
	if to > from && to == StateDegraded {
		h.degradedSec.Inc()
	}
	return from, to
}

// notify invokes the transition hook outside the lock.
func (h *healthMachine) notify(from, to HealthState) {
	if from != to && h.policy.OnTransition != nil {
		h.policy.OnTransition(from, to)
	}
}

// force pins the state (test hook — ladder routing tests need a specific
// state without synthesizing the load that produces it).
func (h *healthMachine) force(s HealthState) {
	h.mu.Lock()
	from := h.state
	h.state = s
	h.lastStep = h.now()
	h.stateGauge.Set(float64(s))
	h.mu.Unlock()
	h.notify(from, s)
}
