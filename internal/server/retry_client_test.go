package server

import (
	"context"
	"errors"
	"sync/atomic"
	"time"
)

// This file is the backoff-retrying client that the overload and soak
// tests drive the server with: the behaviour a compliant client shows
// against sheds that carry Retry-After hints.

// RetryAfterHint is implemented by errors that carry a server-provided
// earliest-retry delay (the HTTP Retry-After header, or this package's
// *RateLimitError and *ShedError). Backoff honors the hint as a floor on its
// own computed delay, so a compliant client never hammers a server that
// just told it when to come back.
type RetryAfterHint interface {
	RetryAfter() time.Duration
}

// RetryBudget caps the total retries spent across a whole client pool.
// Per-call attempt limits bound one request's persistence; the shared
// budget bounds the pool's aggregate retry traffic — without it, a server
// shedding 50% of requests doubles its arrival rate from retries alone
// (a retry storm), which is exactly the feedback loop overload control
// exists to break. A nil *RetryBudget is unlimited.
type RetryBudget struct {
	left atomic.Int64
}

// NewRetryBudget returns a budget of n total retries.
func NewRetryBudget(n int64) *RetryBudget {
	b := &RetryBudget{}
	b.left.Store(n)
	return b
}

// Take consumes one retry from the budget, reporting false when exhausted.
// Nil-safe: a nil budget always grants.
func (b *RetryBudget) Take() bool {
	if b == nil {
		return true
	}
	return b.left.Add(-1) >= 0
}

// Remaining returns the retries left (possibly negative after contention;
// clamped to zero). Nil-safe.
func (b *RetryBudget) Remaining() int64 {
	if b == nil {
		return 1 << 62
	}
	if n := b.left.Load(); n > 0 {
		return n
	}
	return 0
}

// Backoff is a jittered exponential retry policy for workload clients
// talking to a load-shedding server. Delays are deterministic in
// (Seed, key, attempt) — the jitter comes from a hash, not a stateful RNG —
// so a chaos run retries at exactly the same offsets every time.
type Backoff struct {
	// Base is the first retry's delay cap (default 5ms); attempt k's cap is
	// Base*Factor^k, clamped to Max.
	Base time.Duration
	// Max clamps the per-attempt delay cap (default 500ms).
	Max time.Duration
	// Factor is the exponential growth rate (default 2).
	Factor float64
	// Seed feeds the deterministic jitter hash.
	Seed int64
	// MaxAttempts bounds the total tries per call, the first included
	// (default 4; 1 disables retries).
	MaxAttempts int
	// Budget, when non-nil, is the shared pool-wide retry budget; an
	// exhausted budget stops retrying even with attempts left.
	Budget *RetryBudget
}

func (b Backoff) normalized() Backoff {
	if b.Base <= 0 {
		b.Base = 5 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = 500 * time.Millisecond
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.MaxAttempts <= 0 {
		b.MaxAttempts = 4
	}
	return b
}

// retryMix is the splitmix64 finalizer (same construction as the fault
// injectors): a strong stateless avalanche for deterministic jitter.
func retryMix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Delay returns the jittered delay before retry attempt (0-based: attempt 0
// is the wait after the first failure). Full jitter in (0, cap]: uniform
// over the exponential cap, so synchronized clients that failed together
// spread out instead of re-colliding (the thundering-herd fix).
func (b Backoff) Delay(key uint64, attempt int) time.Duration {
	b = b.normalized()
	ceil := float64(b.Base)
	for i := 0; i < attempt; i++ {
		ceil *= b.Factor
		if ceil >= float64(b.Max) {
			ceil = float64(b.Max)
			break
		}
	}
	h := retryMix(uint64(b.Seed) ^ retryMix(key) ^ uint64(attempt)*0x9e3779b97f4a7c15)
	frac := float64(h>>11) / float64(1<<53) // [0, 1)
	d := time.Duration((1 - frac) * ceil)   // (0, ceil]
	if d <= 0 {
		d = time.Nanosecond
	}
	return d
}

// Retry runs fn until it succeeds, fails with a non-retryable error, or the
// attempt/budget limits are exhausted. retryable classifies errors; when
// nil, only errors carrying a RetryAfterHint are retried. A server hint is
// honored as a floor under the computed backoff delay. A context that ends
// mid-wait stops immediately, returning the last error from fn.
//
// attempts reports how many times fn ran (≥1), so attempts-1 is the retry
// count a caller charges against its own accounting.
func (b Backoff) Retry(ctx context.Context, key uint64, retryable func(error) bool, fn func() error) (attempts int, err error) {
	b = b.normalized()
	for {
		attempts++
		err = fn()
		if err == nil {
			return attempts, nil
		}
		if retryable == nil {
			var hint RetryAfterHint
			if !errors.As(err, &hint) {
				return attempts, err
			}
		} else if !retryable(err) {
			return attempts, err
		}
		if attempts >= b.MaxAttempts || !b.Budget.Take() {
			return attempts, err
		}
		d := b.Delay(key, attempts-1)
		var hint RetryAfterHint
		if errors.As(err, &hint) && hint.RetryAfter() > d {
			d = hint.RetryAfter()
		}
		t := time.NewTimer(d)
		select {
		case <-t.C:
		case <-ctx.Done():
			t.Stop()
			return attempts, err
		}
	}
}
