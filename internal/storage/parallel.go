package storage

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Parallel sealing: FinishLoad's two passes — per-column statistics and
// per-(column, segment) encoding — are embarrassingly parallel, and both
// are deterministic per job (buildSegment is one-pass with a sorted
// dictionary; a column's statistics are a function of its sorted values). Fanning the jobs across a bounded
// worker pool with results landing by index therefore produces a sealed
// table byte-equal to serial sealing for any worker count, which the
// equivalence suite asserts under the race detector.

// buildWorkers is the requested parallelism for sealing work (FinishLoad,
// and through it maintain.RefreshStats). The effective count additionally
// clamps to sealWorkerCap and to the number of jobs. It defaults to serial;
// lpce-sql -build-workers raises it.
var buildWorkers = 1

// SetBuildWorkers sets the sealing parallelism for tables sealed after the
// call and returns a function restoring the previous value. Values below 1
// clamp to 1. Like SetSegmentRows, it must not be called while loads are in
// flight.
func SetBuildWorkers(n int) (restore func()) {
	old := buildWorkers
	if n < 1 {
		n = 1
	}
	buildWorkers = n
	return func() { buildWorkers = old }
}

// sealWorkerCap clamps the effective sealing workers to the host's core
// count, mirroring the executor's exchange clamp — extra goroutines on a
// saturated machine only add scheduling overhead. exec.SetExchangeWorkerCap
// forwards here so tests that force real concurrency cap (or uncap) both
// build paths together.
var sealWorkerCap = runtime.GOMAXPROCS(0)

// SetSealWorkerCap overrides the GOMAXPROCS clamp on sealing workers and
// returns a function restoring the previous value. It exists for tests that
// must exercise genuinely concurrent sealing regardless of the host's core
// count (results are identical either way — that is the property under
// test); production code never calls it.
func SetSealWorkerCap(n int) (restore func()) {
	old := sealWorkerCap
	sealWorkerCap = n
	return func() { sealWorkerCap = old }
}

// runSealJobs runs fn(0) … fn(n-1) across min(workers, n) goroutines pulling
// from an atomic job counter, returning once all jobs finished. Jobs must be
// mutually independent with results landing by index; with fewer than two
// effective workers the jobs run inline in index order, so the serial path
// is the parallel path's oracle by construction.
func runSealJobs(workers, n int, fn func(int)) {
	if workers > n {
		workers = n
	}
	if workers < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
