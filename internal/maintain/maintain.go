// Package maintain implements the operational machinery around a deployed
// learned estimator that the paper discusses but defers (§3.2 "handling
// data updates", §7.3 "progressive training"): drift monitoring of live
// estimation quality, and statistics refresh after data updates. The
// updates themselves are storage.Table.AppendRows, which unseals the table;
// RefreshStats reseals and re-analyzes every table appended to.
//
// The intended loop is the paper's deployment suggestion: ship the model
// trained on a small sample, observe the q-errors of completed queries
// (their true cardinalities are free — the executor counts them anyway),
// and re-train when the observed error drifts away from the validation
// baseline.
package maintain

import (
	"sort"
	"sync"

	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/storage"
)

// Monitor tracks the rolling estimation quality of a deployed estimator.
// It is safe for concurrent use.
type Monitor struct {
	mu sync.Mutex
	// Baseline is the validation median q-error at training time.
	baseline float64
	// Factor is how much worse than baseline the rolling median may get
	// before Drifted reports true.
	factor float64
	window []float64
	size   int
	next   int
	filled bool
}

// NewMonitor returns a monitor with the given validation baseline, drift
// factor (e.g. 4: alarm when live errors are 4x the training-time median)
// and rolling window size.
func NewMonitor(baselineMedianQ, factor float64, windowSize int) *Monitor {
	if windowSize < 1 {
		windowSize = 1
	}
	if factor <= 1 {
		factor = 4
	}
	if baselineMedianQ < 1 {
		baselineMedianQ = 1
	}
	return &Monitor{
		baseline: baselineMedianQ,
		factor:   factor,
		window:   make([]float64, windowSize),
		size:     windowSize,
	}
}

// Observe records one completed query's true and estimated root
// cardinality.
func (m *Monitor) Observe(trueCard, estCard float64) {
	q := obs.QError(trueCard, estCard)
	m.mu.Lock()
	defer m.mu.Unlock()
	m.window[m.next] = q
	m.next = (m.next + 1) % m.size
	if m.next == 0 {
		m.filled = true
	}
}

// Observations reports how many samples the rolling window currently holds.
func (m *Monitor) Observations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.filled {
		return m.size
	}
	return m.next
}

// MedianQ returns the rolling median q-error (1 when empty).
func (m *Monitor) MedianQ() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.medianLocked()
}

func (m *Monitor) medianLocked() float64 {
	n := m.next
	if m.filled {
		n = m.size
	}
	if n == 0 {
		return 1
	}
	s := append([]float64(nil), m.window[:n]...)
	sort.Float64s(s)
	return s[n/2]
}

// Drifted reports whether the rolling median exceeds factor x baseline. It
// stays false until the window has at least a quarter of its capacity, so
// a few unlucky queries right after deployment do not trip the alarm.
func (m *Monitor) Drifted() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.next
	if m.filled {
		n = m.size
	}
	if n*4 < m.size {
		return false
	}
	return m.medianLocked() > m.baseline*m.factor
}

// RefreshStats brings catalog column statistics and histogram statistics
// up to date after data updates (the engine's ANALYZE): it re-seals every
// table appended to since its last seal, re-analyzing only the rows
// appended since (their sorted value counts are merged into the ones the
// table keeps, so the cost follows the batch, not the table) and
// recomputing the zone maps the appends invalidated, and leaves clean
// tables untouched. The returned Stats gathers the seal-time statistics; estimators
// built before the refresh keep theirs.
// Learned models are NOT retrained here — Monitor decides when that is
// worth the cost.
func RefreshStats(db *storage.Database) *histogram.Stats {
	for _, t := range db.Tables {
		if t != nil {
			t.FinishLoad()
		}
	}
	return histogram.Analyze(db)
}
