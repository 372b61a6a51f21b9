package cardest

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/query"
)

// flaky is a scriptable estimator: each call pops the next behaviour.
type flaky struct {
	mu     sync.Mutex
	script []func() float64
	calls  int
}

func (f *flaky) Name() string { return "flaky" }

func (f *flaky) EstimateSubset(*query.Query, query.BitSet) float64 {
	f.mu.Lock()
	fn := f.script[f.calls%len(f.script)]
	f.calls++
	f.mu.Unlock()
	return fn()
}

func ok(v float64) func() float64  { return func() float64 { return v } }
func boom() float64                { panic("injected") }
func est(v float64) func() float64 { return ok(v) }

func TestGuardRecoversPanicsAndServesFallback(t *testing.T) {
	inner := &flaky{script: []func() float64{func() float64 { return boom() }}}
	g := NewGuard(inner, GuardConfig{Fallback: Fixed{Value: 77, Label: "fb"}, TripAfter: 100})
	if v := g.EstimateSubset(nil, 0); v != 77 {
		t.Fatalf("want fallback 77, got %v", v)
	}
	if s := g.Stats(); s.Panics != 1 || s.Open {
		t.Fatalf("want 1 panic, closed breaker; got %+v", s)
	}
}

func TestGuardClampsGarbage(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -4} {
		inner := &flaky{script: []func() float64{est(bad)}}
		g := NewGuard(inner, GuardConfig{Fallback: Fixed{Value: 9, Label: "fb"}, TripAfter: 100})
		if v := g.EstimateSubset(nil, 0); v != 9 {
			t.Fatalf("garbage %v: want fallback 9, got %v", bad, v)
		}
		if s := g.Stats(); s.Garbage != 1 {
			t.Fatalf("garbage %v: stats %+v", bad, s)
		}
	}
}

func TestGuardClampsAboveBound(t *testing.T) {
	inner := &flaky{script: []func() float64{est(1e12)}}
	g := NewGuard(inner, GuardConfig{
		Fallback:  Fixed{Value: 9},
		Bound:     func(*query.Query, query.BitSet) float64 { return 500 },
		TripAfter: 100,
	})
	if v := g.EstimateSubset(nil, 0); v != 500 {
		t.Fatalf("want clamp to 500, got %v", v)
	}
	if s := g.Stats(); s.Clamps != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestGuardLatencyBudget(t *testing.T) {
	inner := &flaky{script: []func() float64{func() float64 {
		time.Sleep(3 * time.Millisecond)
		return 42
	}}}
	g := NewGuard(inner, GuardConfig{Fallback: Fixed{Value: 9}, LatencyBudget: time.Microsecond, TripAfter: 100})
	if v := g.EstimateSubset(nil, 0); v != 42 {
		t.Fatalf("late but valid value must be kept, got %v", v)
	}
	if s := g.Stats(); s.LatencyFaults != 1 {
		t.Fatalf("stats %+v", s)
	}
}

func TestGuardBreakerTripAndRecovery(t *testing.T) {
	// Script: three panics (trip), then healthy 5s forever.
	inner := &flaky{script: []func() float64{
		func() float64 { return boom() },
		func() float64 { return boom() },
		func() float64 { return boom() },
		est(5), est(5), est(5), est(5), est(5), est(5), est(5), est(5),
	}}
	var events []GuardEvent
	var mu sync.Mutex
	reg := obs.NewRegistry()
	g := NewGuard(inner, GuardConfig{
		Fallback:  Fixed{Value: 11, Label: "fb"},
		TripAfter: 3,
		Cooldown:  2,
		Registry:  reg,
		OnDegrade: func(e GuardEvent) { mu.Lock(); events = append(events, e); mu.Unlock() },
	})

	for i := 0; i < 3; i++ {
		if v := g.EstimateSubset(nil, 0); v != 11 {
			t.Fatalf("call %d: want fallback 11, got %v", i, v)
		}
	}
	s := g.Stats()
	if !s.Open || s.Trips != 1 || s.Panics != 3 {
		t.Fatalf("breaker should be open after 3 faults: %+v", s)
	}

	// Two cooldown calls from the fallback, then the probe hits the healthy
	// inner estimator and closes the breaker.
	for i := 0; i < 2; i++ {
		if v := g.EstimateSubset(nil, 0); v != 11 {
			t.Fatalf("cooldown call %d: want 11, got %v", i, v)
		}
	}
	if v := g.EstimateSubset(nil, 0); v != 5 {
		t.Fatalf("probe should reach inner estimator, got %v", v)
	}
	s = g.Stats()
	if s.Open || s.Recoveries != 1 {
		t.Fatalf("breaker should have closed: %+v", s)
	}
	if v := g.EstimateSubset(nil, 0); v != 5 {
		t.Fatalf("closed breaker must serve inner, got %v", v)
	}

	if got := reg.Counter("cardest.guard.breaker_trips").Value(); got != 1 {
		t.Fatalf("trip counter = %d", got)
	}
	if got := reg.Counter("cardest.guard.breaker_recoveries").Value(); got != 1 {
		t.Fatalf("recovery counter = %d", got)
	}
	if got := reg.Counter("cardest.guard.fallback_calls").Value(); got == 0 {
		t.Fatal("fallback calls not counted")
	}

	mu.Lock()
	defer mu.Unlock()
	var kinds []string
	for _, e := range events {
		kinds = append(kinds, e.Kind)
	}
	want := []string{"panic", "panic", "panic", "breaker-open", "breaker-close"}
	if len(kinds) != len(want) {
		t.Fatalf("events %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("events %v, want %v", kinds, want)
		}
	}
}

func TestGuardConcurrentHammer(t *testing.T) {
	// Mixed healthy/faulty script under heavy concurrency: the guard must
	// never panic outward and always return a finite positive value.
	inner := &flaky{script: []func() float64{
		est(3), func() float64 { return boom() }, est(7), est(math.NaN()), est(2),
	}}
	g := NewGuard(inner, GuardConfig{Fallback: Fixed{Value: 13}, TripAfter: 2, Cooldown: 4})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := g.EstimateSubset(nil, 0)
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					panic("guard let a garbage value through")
				}
			}
		}()
	}
	wg.Wait()
}

// slowThenFast is an estimator whose latency is switchable: slow until
// recover() is called, instant after — the "learned model under load"
// scenario for the half-open probe.
type slowThenFast struct {
	slow  atomic.Bool
	delay time.Duration
	calls atomic.Int64
}

func (s *slowThenFast) Name() string { return "slow-then-fast" }

func (s *slowThenFast) EstimateSubset(*query.Query, query.BitSet) float64 {
	s.calls.Add(1)
	if s.slow.Load() {
		time.Sleep(s.delay)
	}
	return 42
}

// TestGuardHalfOpenProbeRecoversByTime is the regression test for the
// breaker staying on the fallback forever: with a call-counted Cooldown that
// never elapses, ProbeInterval must still let a wall-clock-spaced probe
// re-admit the inner estimator once its latency budget recovers.
func TestGuardHalfOpenProbeRecoversByTime(t *testing.T) {
	inner := &slowThenFast{delay: 2 * time.Millisecond}
	inner.slow.Store(true)
	g := NewGuard(inner, GuardConfig{
		Fallback:      Fixed{Value: 9, Label: "fb"},
		LatencyBudget: 100 * time.Microsecond,
		TripAfter:     1,
		Cooldown:      1 << 30, // the call-counted path alone would keep the breaker open ~forever
		ProbeInterval: time.Minute,
	})
	now := time.Unix(1000, 0)
	g.now = func() time.Time { return now }

	// First call overruns the latency budget and trips the breaker (the
	// late value itself is still served).
	if v := g.EstimateSubset(nil, 0); v != 42 {
		t.Fatalf("late value must be kept, got %v", v)
	}
	if s := g.Stats(); !s.Open || s.LatencyFaults != 1 {
		t.Fatalf("breaker should be open on latency fault: %+v", s)
	}

	// While open and before the interval, everything is fallback: the inner
	// estimator is not called again.
	for i := 0; i < 10; i++ {
		if v := g.EstimateSubset(nil, 0); v != 9 {
			t.Fatalf("open breaker call %d: want fallback 9, got %v", i, v)
		}
	}
	if c := inner.calls.Load(); c != 1 {
		t.Fatalf("inner called %d times while breaker open", c)
	}

	// The latency recovers, the interval elapses: the next call is a probe,
	// it succeeds, and the breaker closes.
	inner.slow.Store(false)
	now = now.Add(2 * time.Minute)
	if v := g.EstimateSubset(nil, 0); v != 42 {
		t.Fatalf("probe should reach the recovered inner estimator, got %v", v)
	}
	if s := g.Stats(); s.Open || s.Recoveries != 1 {
		t.Fatalf("breaker should have closed after the probe: %+v", s)
	}
	if v := g.EstimateSubset(nil, 0); v != 42 {
		t.Fatalf("closed breaker must serve inner, got %v", v)
	}
}

// TestGuardHalfOpenFailedProbeRearmsInterval: a probe that still overruns
// the budget re-arms the interval instead of closing the breaker.
func TestGuardHalfOpenFailedProbeRearmsInterval(t *testing.T) {
	inner := &slowThenFast{delay: 2 * time.Millisecond}
	inner.slow.Store(true)
	g := NewGuard(inner, GuardConfig{
		Fallback:      Fixed{Value: 9, Label: "fb"},
		LatencyBudget: 100 * time.Microsecond,
		TripAfter:     1,
		Cooldown:      1 << 30,
		ProbeInterval: time.Minute,
	})
	now := time.Unix(2000, 0)
	g.now = func() time.Time { return now }

	g.EstimateSubset(nil, 0) // trip
	now = now.Add(2 * time.Minute)
	if v := g.EstimateSubset(nil, 0); v != 42 {
		t.Fatalf("probe keeps the late value, got %v", v)
	}
	if s := g.Stats(); !s.Open || s.Recoveries != 0 {
		t.Fatalf("failed probe must not close the breaker: %+v", s)
	}
	// Immediately after the failed probe the interval is re-armed.
	if v := g.EstimateSubset(nil, 0); v != 9 {
		t.Fatalf("want fallback right after failed probe, got %v", v)
	}
	if c := inner.calls.Load(); c != 2 {
		t.Fatalf("inner calls = %d, want 2", c)
	}
}
