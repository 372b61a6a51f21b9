// Package fault provides deterministic, seed-driven fault injection for the
// chaos test suite: estimator panics, latency spikes, and garbage
// estimates, plus operator errors and stalls in the batch holding a chosen
// output row.
//
// Every decision is a pure hash of (seed, site, key) — never a stateful RNG
// — so whether a given query is faulted does not depend on goroutine
// scheduling or call order. A parallel chaos run therefore faults exactly
// the same (query, subset) pairs as a serial one, and a chaos run can be
// compared query by query against a fault-free run: queries outside the
// injected set must produce byte-identical results.
package fault

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
)

// ErrInjected marks an operator error introduced by the injector; chaos
// tests match it with errors.Is to separate expected degradation from real
// executor bugs.
var ErrInjected = errors.New("fault: injected operator error")

// mix is the splitmix64 finalizer — a strong 64-bit avalanche.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Injector makes deterministic fault decisions: Hit fires for a Rate
// fraction of keys, chosen by hashing (Seed, site, key). The zero value
// never fires.
type Injector struct {
	Seed int64
	Rate float64 // fault probability per distinct key, in [0, 1]
}

// Hit reports whether the fault fires at site for key. Same inputs, same
// answer — regardless of goroutine interleaving.
func (in Injector) Hit(site string, key uint64) bool {
	if in.Rate <= 0 {
		return false
	}
	h := uint64(in.Seed) ^ 14695981039346656037
	for _, b := range []byte(site) {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h = mix(h ^ key)
	return float64(h>>11)/float64(1<<53) < in.Rate
}

// estKey identifies one estimator call site: the query plus the relation
// subset being estimated.
func estKey(q *query.Query, mask query.BitSet) uint64 {
	return mix(q.Fingerprint() ^ uint64(mask)*0x9e3779b97f4a7c15)
}

// Estimator wraps an inner estimator with injected faults, emulating the
// ways a learned model fails in production: it panics, it stalls, or it
// returns garbage. Counters record what actually fired so tests can assert
// the chaos was real.
type Estimator struct {
	Inner cardest.Estimator
	// Panic, Latency, and Garbage decide independently per (query, subset).
	Panic   Injector
	Latency Injector
	Garbage Injector
	// LatencyDelay is how long a latency fault sleeps (default 1ms).
	LatencyDelay time.Duration

	Panics    atomic.Int64
	Latencies atomic.Int64
	Garbages  atomic.Int64
}

// Name implements cardest.Estimator.
func (f *Estimator) Name() string { return f.Inner.Name() }

// EstimateSubset implements cardest.Estimator with fault injection.
func (f *Estimator) EstimateSubset(q *query.Query, mask query.BitSet) float64 {
	key := estKey(q, mask)
	if f.Panic.Hit("est-panic", key) {
		f.Panics.Add(1)
		panic(fmt.Sprintf("fault: injected estimator panic (subset %#x)", uint64(mask)))
	}
	if f.Latency.Hit("est-latency", key) {
		f.Latencies.Add(1)
		d := f.LatencyDelay
		if d <= 0 {
			d = time.Millisecond
		}
		time.Sleep(d)
	}
	if f.Garbage.Hit("est-garbage", key) {
		f.Garbages.Add(1)
		switch mix(key^0xdead) % 4 {
		case 0:
			return math.NaN()
		case 1:
			return math.Inf(1)
		case 2:
			return -42
		default:
			return 1e308
		}
	}
	return f.Inner.EstimateSubset(q, mask)
}

// Ops injects operator-level faults through exec.Ctx.Wrap: a chosen
// operator fails with ErrInjected, or stalls, in the batch that holds its
// AtRow-th output row. Decisions key on (query fingerprint, covered subset),
// so the same plan nodes fault on every run, whatever the worker count.
type Ops struct {
	Err   Injector
	Stall Injector
	// AtRow is the 1-based output row whose batch fires the fault (default
	// 1): an operator that produces fewer rows never faults. Row counting is
	// per operator instance; an operator whose child faults first simply
	// propagates the child's error.
	AtRow int64
	// StallFor is how long a stall sleeps (default 1ms). The stall happens
	// once, then the operator continues — it models a hiccuping data source,
	// and gives cancellation tests a guaranteed-slow query.
	StallFor time.Duration

	Errs   atomic.Int64
	Stalls atomic.Int64
}

// Wrap is an exec.WrapFunc. Operators not selected by any injector are
// returned untouched.
func (f *Ops) Wrap(ctx *exec.Ctx, op exec.BatchOperator, n *plan.Node) exec.BatchOperator {
	key := mix(ctx.Q.Fingerprint() ^ uint64(n.Tables)*0x9e3779b97f4a7c15 ^ 0x0b5)
	fail := f.Err.Hit("op-err", key)
	stall := f.Stall.Hit("op-stall", key)
	if !fail && !stall {
		return op
	}
	at := f.AtRow
	if at <= 0 {
		at = 1
	}
	stallFor := f.StallFor
	if stallFor <= 0 {
		stallFor = time.Millisecond
	}
	return &faultyOp{
		inner: op, node: n, owner: f,
		fail: fail, stall: stall, at: at, stallFor: stallFor,
	}
}

// faultyOp is the injected operator shim.
type faultyOp struct {
	inner    exec.BatchOperator
	node     *plan.Node
	owner    *Ops
	fail     bool
	stall    bool
	at       int64
	stallFor time.Duration
	rows     int64
}

func (o *faultyOp) Open(ctx *exec.Ctx) error {
	o.rows = 0
	return o.inner.Open(ctx)
}

func (o *faultyOp) NextBatch(ctx *exec.Ctx) (*exec.Batch, error) {
	b, err := o.inner.NextBatch(ctx)
	if err != nil || b == nil {
		return b, err
	}
	before := o.rows
	o.rows += int64(b.Len())
	if before < o.at && o.rows >= o.at {
		if o.stall {
			o.owner.Stalls.Add(1)
			time.Sleep(o.stallFor)
			// A slow source must still observe cancellation: a deadline that
			// expired during the stall surfaces here instead of waiting for
			// the next work-charge poll.
			if ctx.Context != nil {
				if err := ctx.Context.Err(); err != nil {
					return nil, err
				}
			}
		}
		if o.fail {
			o.owner.Errs.Add(1)
			return nil, fmt.Errorf("%w (%v over %#x at row %d)",
				ErrInjected, o.node.Op, uint64(o.node.Tables), o.at)
		}
	}
	return b, nil
}

func (o *faultyOp) Close() { o.inner.Close() }

// Spike is a deterministic load-spike schedule for overload tests: request
// indices are grouped into windows of Period; the first Burst indices of
// each window arrive back-to-back (no pacing) while the rest are paced Gap
// apart. Clients sleep Delay(i) before sending request i, so the arrival
// process alternates between sustained trickle and saturating spike — the
// traffic shape that exercises rate limiters, admission queues, and the
// health state machine. Pure function of the index: the same i is always in
// (or out of) a spike, regardless of scheduling.
type Spike struct {
	Period int           // window length in requests (default 32)
	Burst  int           // leading back-to-back requests per window (default Period/4)
	Gap    time.Duration // inter-arrival pacing outside bursts (default 500µs)
}

func (s Spike) normalized() Spike {
	if s.Period <= 0 {
		s.Period = 32
	}
	if s.Burst <= 0 {
		s.Burst = s.Period / 4
	}
	if s.Burst > s.Period {
		s.Burst = s.Period
	}
	if s.Gap <= 0 {
		s.Gap = 500 * time.Microsecond
	}
	return s
}

// InBurst reports whether request i falls inside a spike window.
func (s Spike) InBurst(i int) bool {
	s = s.normalized()
	return i%s.Period < s.Burst
}

// Delay returns the pre-send pacing delay for request i: zero inside a
// spike, Gap outside.
func (s Spike) Delay(i int) time.Duration {
	s = s.normalized()
	if s.InBurst(i) {
		return 0
	}
	return s.Gap
}
