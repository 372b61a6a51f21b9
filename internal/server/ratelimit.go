package server

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/lpce-db/lpce/internal/obs"
)

// ErrRateLimited rejects a request because the tenant exceeded its
// configured request rate (HTTP 429). The concrete error is a
// *RateLimitError carrying the earliest-retry hint for the Retry-After
// header; callers match the class with errors.Is(err, ErrRateLimited).
var ErrRateLimited = errors.New("server: tenant rate limited")

// RateLimitError is the typed rate-limit rejection: which tenant, and how
// long until a token will be available. It satisfies errors.Is against
// ErrRateLimited and exposes RetryAfter for the transport layer's
// Retry-After header and for clients that back off by it.
type RateLimitError struct {
	Tenant string
	After  time.Duration
}

func (e *RateLimitError) Error() string {
	return fmt.Sprintf("server: tenant %q rate limited (retry after %v)", e.Tenant, e.After)
}

// Is makes errors.Is(err, ErrRateLimited) match.
func (e *RateLimitError) Is(target error) bool { return target == ErrRateLimited }

// RetryAfter returns the earliest-retry hint.
func (e *RateLimitError) RetryAfter() time.Duration { return e.After }

// tokenBucket is a standard token-bucket rate limiter: tokens refill
// continuously at qps up to burst, each admission spends one. It shapes a
// tenant's sustained request rate while permitting short bursts up to the
// bucket depth — the first overload-control line of defense, applied before
// the shared admission semaphore so one tenant's flood is charged to that
// tenant alone instead of filling the global wait queue.
//
// The clock is injectable so tests drive refill deterministically.
type tokenBucket struct {
	mu     sync.Mutex
	qps    float64 // sustained refill rate, tokens/second
	burst  float64 // bucket depth
	tokens float64
	last   time.Time
	now    func() time.Time

	limited *obs.Counter // nil-safe
}

// newTokenBucket returns a bucket refilling at qps with the given burst
// depth (clamped to at least 1), starting full. A qps <= 0 would never
// refill; callers gate on that and skip the bucket entirely.
func newTokenBucket(qps float64, burst int, limited *obs.Counter) *tokenBucket {
	if burst < 1 {
		burst = 1
	}
	b := &tokenBucket{
		qps:     qps,
		burst:   float64(burst),
		tokens:  float64(burst),
		now:     time.Now,
		limited: limited,
	}
	b.last = b.now()
	return b
}

// take attempts to spend one token. On refusal it returns the time until
// one full token will have refilled — the Retry-After hint.
func (b *tokenBucket) take() (bool, time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	now := b.now()
	if dt := now.Sub(b.last).Seconds(); dt > 0 {
		b.tokens += dt * b.qps
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
	}
	b.last = now
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	b.limited.Inc()
	return false, time.Duration((1 - b.tokens) / b.qps * float64(time.Second))
}
