package server

import (
	"sync"
	"time"

	"github.com/lpce-db/lpce/internal/obs"
)

// HealthState is the server's coarse load condition, read from the
// admission queue's depth alone. It drives the graceful degradation
// ladder: healthy serves everything, degraded sheds optional work (queries
// run without LPCE-R, so they never re-optimize), overloaded additionally
// plans with the histogram baseline instead of the primary stack so
// admitted queries still finish, just with worse plans.
type HealthState int32

const (
	// StateHealthy: full service — learned estimation and re-optimization.
	StateHealthy HealthState = iota
	// StateDegraded: queries admitted in this state run the primary
	// estimator without its refiner, so they never re-optimize. A query
	// admitted healthy keeps its refiner when the state changes under it.
	StateDegraded
	// StateOverloaded: estimation routed to the histogram baseline, no
	// refiner; admission keeps shedding at the edges.
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

// holdDown is the minimum dwell before the machine steps DOWN a level.
// Stepping up is immediate: hysteresis protects against flapping on
// recovery, not against reacting to load.
const holdDown = 2 * time.Second

// healthMachine tracks the server's load condition from the admission
// queue depth, which the admission layer reports on every enqueue and
// dequeue. The state steps up at degradedAt = max(1, MaxQueue/2) and
// overloadedAt = max(degradedAt+1, MaxQueue·9/10) queued requests. The
// machine re-evaluates on every observation and moves STEPWISE — one level
// per evaluation in either direction — so a sudden queue jump still yields
// the full healthy→degraded→overloaded transition sequence, and recovery
// passes back through degraded instead of snapping to healthy.
type healthMachine struct {
	mu    sync.Mutex
	state HealthState
	// queue is the last reported admission queue depth.
	queue int
	// lastStep is when the state last changed; hold-down gates downward
	// steps on it.
	lastStep time.Time
	now      func() time.Time

	// Thresholds and dwell, fixed at construction; the package's tests
	// shrink them to drive the ladder without resizing the queue.
	degradedAt, overloadedAt int
	holdDown                 time.Duration
	// onTransition, when set, observes every state change (old, new),
	// outside the machine's lock: the overload soak's transition log.
	onTransition func(from, to HealthState)

	// metrics (nil-safe)
	stateGauge  *obs.Gauge
	transitions *obs.Counter
	degradedSec *obs.Counter // entries into degraded-or-worse
}

func newHealthMachine(maxQueue int, reg *obs.Registry) *healthMachine {
	degradedAt := max(1, maxQueue/2)
	h := &healthMachine{
		now:          time.Now,
		degradedAt:   degradedAt,
		overloadedAt: max(degradedAt+1, maxQueue*9/10),
		holdDown:     holdDown,
		stateGauge:   reg.Gauge("server.health.state"),
		transitions:  reg.Counter("server.health.transitions"),
		degradedSec:  reg.Counter("server.health.degraded_entries"),
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

// tick re-evaluates with no new observation — Health() calls it so an idle
// server (no queries arriving to observe) still steps down over time.
func (h *healthMachine) tick() {
	h.mu.Lock()
	from, to := h.evalLocked()
	h.mu.Unlock()
	h.notify(from, to)
}

// evalLocked steps the state at most one level toward the level the queue
// depth calls for, applying hold-down to downward steps. Returns (from,
// to); from == to means no transition. Called with the lock held.
func (h *healthMachine) evalLocked() (from, to HealthState) {
	from, to = h.state, h.state
	target := StateHealthy
	switch {
	case h.queue >= h.overloadedAt:
		target = StateOverloaded
	case h.queue >= h.degradedAt:
		target = StateDegraded
	}
	switch {
	case target > h.state:
		to = h.state + 1
	case target < h.state:
		if h.now().Sub(h.lastStep) < h.holdDown {
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
	if from != to && h.onTransition != nil {
		h.onTransition(from, to)
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
