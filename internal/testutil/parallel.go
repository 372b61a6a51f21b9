package testutil

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from one pool task, so a single
// panicking query degrades to a per-query error instead of killing the
// whole worker pool (and with it every in-flight query).
type PanicError struct {
	Index int    // task index that panicked
	Value any    // the recovered panic value
	Stack []byte // stack captured at recovery
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("testutil: task %d panicked: %v", e.Index, e.Value)
}

// safeCall runs fn(i), converting a panic into a *PanicError.
func safeCall(i int, fn func(i int) error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Index: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(i)
}

// RunEach executes fn(i) for every i in [0, n) across a pool of worker
// goroutines (GOMAXPROCS when workers <= 0) pulling indices from a shared
// atomic counter, so uneven per-task costs balance automatically. It never
// stops on task failure: each task's error (with panics recovered into
// *PanicError) lands in the returned slice at its index, nil marking
// success. One bad query cannot take down the pool or starve the queries
// behind it. fn must be safe to call concurrently for distinct indices.
//
// A cancelled ctx stops new work, and tasks never started report
// ctx.Err(). In-flight tasks are not interrupted; cancel-aware tasks thread
// ctx themselves. Indices are handed out in ascending order and a worker
// checks ctx before taking one, so every index handed out runs, and so
// does every index below it. A caller that cancels ctx on the first
// failure therefore still runs every task a serial loop would have run
// before stopping, and the lowest-index error is the serial loop's error.
func RunEach(ctx context.Context, n, workers int, fn func(i int) error) []error {
	errs := make([]error, n)
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	for w := 0; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				errs[i] = safeCall(i, fn)
			}
		}()
	}
	wg.Wait()
	for i := int(next.Load()); i < n; i++ {
		errs[i] = ctx.Err()
	}
	return errs
}
