package server

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// hintedErr is a shed error carrying a server Retry-After hint.
type hintedErr struct {
	after time.Duration
}

func (e *hintedErr) Error() string             { return "shed" }
func (e *hintedErr) RetryAfter() time.Duration { return e.after }

func TestBackoffDelayDeterministicAndBounded(t *testing.T) {
	b := Backoff{Base: 4 * time.Millisecond, Max: 64 * time.Millisecond, Factor: 2, Seed: 9}
	for attempt := 0; attempt < 8; attempt++ {
		ceil := 4 * time.Millisecond << attempt
		if ceil > 64*time.Millisecond {
			ceil = 64 * time.Millisecond
		}
		for key := uint64(0); key < 50; key++ {
			d1, d2 := b.Delay(key, attempt), b.Delay(key, attempt)
			if d1 != d2 {
				t.Fatalf("delay(%d,%d) not deterministic: %v vs %v", key, attempt, d1, d2)
			}
			if d1 <= 0 || d1 > ceil {
				t.Fatalf("delay(%d,%d) = %v outside (0, %v]", key, attempt, d1, ceil)
			}
		}
	}
	// Different keys must jitter apart (not all equal): count distinct.
	seen := map[time.Duration]bool{}
	for key := uint64(0); key < 50; key++ {
		seen[b.Delay(key, 3)] = true
	}
	if len(seen) < 25 {
		t.Fatalf("jitter too clumped: %d distinct delays over 50 keys", len(seen))
	}
}

func TestRetrySucceedsAfterSheds(t *testing.T) {
	calls := 0
	b := Backoff{Base: time.Microsecond, Max: 10 * time.Microsecond, MaxAttempts: 5, Seed: 1}
	attempts, err := b.Retry(context.Background(), 7, nil, func() error {
		calls++
		if calls < 3 {
			return &hintedErr{after: time.Microsecond}
		}
		return nil
	})
	if err != nil || attempts != 3 || calls != 3 {
		t.Fatalf("attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

func TestRetryStopsOnNonRetryable(t *testing.T) {
	permanent := errors.New("permanent")
	b := Backoff{MaxAttempts: 5, Seed: 1}
	attempts, err := b.Retry(context.Background(), 0, nil, func() error { return permanent })
	if attempts != 1 || !errors.Is(err, permanent) {
		t.Fatalf("attempts=%d err=%v; a hint-less error must not be retried by default", attempts, err)
	}

	// An explicit classifier overrides the hint-based default.
	calls := 0
	attempts, err = b.Retry(context.Background(), 0,
		func(error) bool { return true },
		func() error { calls++; return permanent })
	if attempts != 5 || calls != 5 || !errors.Is(err, permanent) {
		t.Fatalf("attempts=%d calls=%d err=%v", attempts, calls, err)
	}
}

func TestRetryHonorsServerHintAsFloor(t *testing.T) {
	b := Backoff{Base: time.Nanosecond, Max: 2 * time.Nanosecond, MaxAttempts: 2, Seed: 1}
	hint := 30 * time.Millisecond
	start := time.Now()
	_, err := b.Retry(context.Background(), 0, nil, func() error { return &hintedErr{after: hint} })
	if err == nil {
		t.Fatal("want final error")
	}
	if waited := time.Since(start); waited < hint {
		t.Fatalf("waited %v, want at least the server hint %v", waited, hint)
	}
}

func TestRetryBudgetStopsThePool(t *testing.T) {
	budget := NewRetryBudget(3)
	b := Backoff{Base: time.Microsecond, MaxAttempts: 10, Seed: 1, Budget: budget}
	total := 0
	for i := 0; i < 4; i++ {
		attempts, _ := b.Retry(context.Background(), uint64(i), nil, func() error {
			return &hintedErr{after: time.Microsecond}
		})
		total += attempts - 1
	}
	if total != 3 {
		t.Fatalf("pool spent %d retries, budget was 3", total)
	}
	if budget.Remaining() != 0 {
		t.Fatalf("remaining = %d", budget.Remaining())
	}
}

func TestRetryCancelledContextReturnsLastError(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	shed := &hintedErr{after: time.Hour} // the wait would be eternal; ctx cuts it
	b := Backoff{MaxAttempts: 3, Seed: 1}
	start := time.Now()
	attempts, err := b.Retry(ctx, 0, nil, func() error { return shed })
	if attempts != 1 || !errors.Is(err, shed) {
		t.Fatalf("attempts=%d err=%v", attempts, err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("cancelled retry must return immediately")
	}
}

func TestRetryBudgetNilUnlimited(t *testing.T) {
	var b *RetryBudget
	for i := 0; i < 10; i++ {
		if !b.Take() {
			t.Fatal("nil budget must always grant")
		}
	}
	if fmt.Sprint(b.Remaining()) == "0" {
		t.Fatal("nil budget must report headroom")
	}
}
