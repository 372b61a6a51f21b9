package workload

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
)

func TestRunParallelCoversEveryIndex(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 8, 100} {
		const n = 57
		var hits [n]atomic.Int32
		for i, err := range RunEach(context.Background(), n, workers, func(i int) error {
			hits[i].Add(1)
			return nil
		}) {
			if err != nil {
				t.Fatalf("workers=%d: errs[%d] = %v", workers, i, err)
			}
		}
		for i := range hits {
			if got := hits[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d executed %d times", workers, i, got)
			}
		}
	}
}

func TestRunParallelEmptyAndSerial(t *testing.T) {
	if errs := RunEach(context.Background(), 0, 4, func(int) error { t.Fatal("called"); return nil }); len(errs) != 0 {
		t.Fatalf("errs = %v", errs)
	}
	// one worker runs the tasks in index order
	var order []int
	RunEach(context.Background(), 5, 1, func(i int) error {
		order = append(order, i)
		return nil
	})
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
	if len(order) != 5 {
		t.Fatalf("serial order = %v", order)
	}
}

// TestRunParallelStopsOnError cancels the pool from the first failing task,
// as engine.(*Engine).ExecuteAll does: the pool stops early, every
// index below the failure still ran, and the lowest-index error is the
// failure itself.
func TestRunParallelStopsOnError(t *testing.T) {
	boom := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int32
	var ran [10_000]atomic.Bool
	errs := RunEach(ctx, len(ran), 4, func(i int) error {
		calls.Add(1)
		ran[i].Store(true)
		if i == 300 {
			cancel()
			return boom
		}
		return nil
	})
	if c := calls.Load(); c == int32(len(ran)) {
		t.Fatal("pool did not stop early after the error")
	}
	for i := 0; i < 300; i++ {
		if !ran[i].Load() || errs[i] != nil {
			t.Fatalf("index %d below the failure: ran=%v err=%v", i, ran[i].Load(), errs[i])
		}
	}
	if !errors.Is(errs[300], boom) {
		t.Fatalf("errs[300] = %v, want boom", errs[300])
	}
	for i := 301; i < len(ran); i++ {
		if !ran[i].Load() && !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("unstarted index %d: err = %v, want context.Canceled", i, errs[i])
		}
	}
}
