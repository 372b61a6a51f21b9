package exec

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// errExchangeStopped is the sentinel a morsel worker unwinds with when the
// exchange is tearing down; it never escapes the exchange.
var errExchangeStopped = errors.New("exec: exchange stopped")

// morselRecorder is a morsel worker's stand-in for the real budget state: a
// replica Ctx carries one, and every charge lands here instead of mutating
// work counters. The coordinator replays the recorded amounts on the real
// Ctx in morsel order, so budget trips, work totals, and their interleaving
// with checkpoints are identical to the serial batch path for any worker
// count. The recorder still polls cancellation every cancelPollInterval
// units, keeping cancellation latency bounded even though the budget
// verdict itself is the coordinator's.
type morselRecorder struct {
	cancel    context.Context
	done      <-chan struct{}
	pending   int64
	sincePoll int64
}

func (r *morselRecorder) charge(n int64) error {
	r.pending += n
	r.sincePoll += n
	if r.sincePoll >= cancelPollInterval {
		r.sincePoll = 0
		select {
		case <-r.done:
			return errExchangeStopped
		default:
		}
		if r.cancel != nil {
			if err := r.cancel.Err(); err != nil {
				return err
			}
		}
	}
	return nil
}

// take returns and clears the work recorded since the last take.
func (r *morselRecorder) take() int64 {
	n := r.pending
	r.pending = 0
	return n
}

// morselItem is one message from a morsel worker to the coordinator: a
// stolen output batch, or the morsel's final per-stage counts, or an error —
// always prefixed by the work recorded since the previous item, which the
// coordinator replays before acting on the payload.
type morselItem struct {
	work    int64
	batch   *Batch
	rows    []int64 // per pipeline stage, set on the final item
	batches []int64
	final   bool
	err     error
}

// exchangeOp is the order-preserving exchange at the top of a parallel
// pipeline. Open runs the inner tree's Open serially (build sides,
// checkpoints, and their work charges are untouched), then splits the
// pipeline's morsel source into fixed-size morsels and runs replica
// pipelines over a bounded worker pool. NextBatch yields each morsel's
// output batches strictly in morsel order, replaying the workers' recorded
// work charges on the real Ctx as it goes — so counts, row order, TrueCard
// stamps, checkpoint sequences, work and materialization totals, and typed
// errors are byte-identical to the serial batch path for any worker count.
//
// Pipelines the exchange cannot split (merge joins, operators replaced by a
// WrapFunc, single-morsel inputs) pass through to the inner operator
// untouched.
type exchangeOp struct {
	inner   BatchOperator
	workers int

	// parallel run state; zero when passing through
	running  bool
	finished bool
	failed   error
	pipe     []pipeNode
	source   morselSource
	unitsEnd int
	chans    []chan morselItem
	tokens   chan struct{}
	done     chan struct{}
	stopped  bool
	wg       sync.WaitGroup
	cur      int // morsel currently being consumed
	rows     []int64
	batches  []int64
	// free recycles consumed output arenas back to the workers so the
	// steady state allocates nothing per batch: the arena handed to the
	// consumer at NextBatch i is reclaimed at NextBatch i+1 (the Batch
	// validity contract) and replaces the one the next steal detaches.
	free chan []int64
	last *Batch
}

// exchangeWorkerCap bounds the effective exchange worker count to the
// scheduler's processor count: with one runnable pipeline per core the
// exchange scales, while oversubscribing a core just interleaves replica
// working sets and pays scheduling for nothing (measured ~1.4x slower on a
// single core). Results are worker-count independent by construction, so
// the clamp is observationally invisible; tests raise it via
// SetExchangeWorkerCap to force real multi-worker runs on any machine.
var exchangeWorkerCap = runtime.GOMAXPROCS(0)

// maybeExchange wraps op in an exchange when the context asks for
// intra-query parallelism. Replica contexts never wrap: their operators are
// born open and pull no children.
func maybeExchange(ctx *Ctx, op BatchOperator) BatchOperator {
	workers := ctx.ExecWorkers
	if workers > exchangeWorkerCap {
		workers = exchangeWorkerCap
	}
	if workers < 2 || ctx.rec != nil {
		return op
	}
	if _, ok := op.(*exchangeOp); ok {
		return op
	}
	return &exchangeOp{inner: op, workers: workers}
}

func (e *exchangeOp) Open(ctx *Ctx) error {
	e.stop() // tear down any previous run before re-Open
	e.running, e.finished, e.failed = false, false, nil
	e.pipe, e.source, e.chans, e.tokens, e.done = nil, nil, nil, nil, nil
	e.stopped, e.cur, e.free, e.last = false, 0, nil, nil
	// The inner Open is serial and identical to the serial path: it drains
	// build sides, charges their work, and fires checkpoints on the real Ctx.
	if err := e.inner.Open(ctx); err != nil {
		return err
	}
	pipe, src, ok := extractPipeline(e.inner)
	if !ok {
		return nil
	}
	units := src.morselUnits()
	nMorsels := (units + morselSize - 1) / morselSize
	if nMorsels < 2 {
		return nil
	}
	workers := e.workers
	if workers > nMorsels {
		workers = nMorsels
	}
	e.pipe, e.source, e.unitsEnd = pipe, src, units
	e.chans = make([]chan morselItem, nMorsels)
	for i := range e.chans {
		e.chans[i] = make(chan morselItem, 4)
	}
	// tokens bound how many morsels may be claimed ahead of the one being
	// consumed, capping buffered output at O(workers) batches instead of the
	// whole result.
	e.tokens = make(chan struct{}, 2*workers)
	e.free = make(chan []int64, 2*workers+2)
	e.done = make(chan struct{})
	e.rows = make([]int64, len(pipe))
	e.batches = make([]int64, len(pipe))
	qctx := ctx.Context
	var next atomic.Int64
	for w := 0; w < workers; w++ {
		e.wg.Add(1)
		go e.worker(qctx, &next, nMorsels)
	}
	e.running = true
	return nil
}

func (e *exchangeOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if e.failed != nil {
		return nil, e.failed
	}
	if e.finished {
		return nil, nil
	}
	if !e.running {
		return e.inner.NextBatch(ctx)
	}
	// The batch handed out last call is relinquished now (the Batch validity
	// contract); hand its arena back to the workers.
	if e.last != nil {
		if d := e.last.data; d != nil {
			select {
			case e.free <- d[:0]:
			default:
			}
		}
		e.last = nil
	}
	var cancel <-chan struct{} // nil (blocks forever) without a context
	if ctx.Context != nil {
		cancel = ctx.Context.Done()
	}
	for {
		if e.cur >= len(e.chans) {
			e.finish()
			return nil, nil
		}
		var it morselItem
		// Liveness needs no timeout: claimed morsels form a contiguous
		// prefix and every claimed morsel produces an item or observes done,
		// so this receive always completes unless the query is cancelled.
		select {
		case it = <-e.chans[e.cur]:
		case <-cancel:
			return nil, e.fail(ctx.Context.Err())
		}
		// Replay the worker's recorded work on the real Ctx first: budget
		// trips land at the same cumulative work as on the serial path.
		if it.work > 0 {
			if err := ctx.charge(it.work); err != nil {
				return nil, e.fail(err)
			}
		}
		if it.err != nil {
			return nil, e.fail(it.err)
		}
		if it.batch != nil {
			e.last = it.batch
			return it.batch, nil
		}
		// final item of the current morsel: fold its counts, move on
		for i := range e.rows {
			e.rows[i] += it.rows[i]
			e.batches[i] += it.batches[i]
		}
		e.cur++
		select {
		case <-e.tokens:
		default:
		}
	}
}

// finish completes a clean parallel run: workers are joined, and the real
// plan nodes and tracing shims receive the aggregated counts the serial
// operators would have stamped at exhaustion.
func (e *exchangeOp) finish() {
	e.finished = true
	e.stop()
	for i, pn := range e.pipe {
		pn.plan.TrueCard = float64(e.rows[i])
		if pn.shim != nil {
			pn.shim.markParallel(e.rows[i], e.batches[i])
		}
	}
}

func (e *exchangeOp) fail(err error) error {
	e.failed = err
	e.stop()
	return err
}

// stop halts the worker pool and waits for it to drain; it is safe to call
// repeatedly and from any exchange state.
func (e *exchangeOp) stop() {
	if e.done == nil || e.stopped {
		return
	}
	e.stopped = true
	close(e.done)
	e.wg.Wait()
}

func (e *exchangeOp) Close() {
	e.stop()
	e.inner.Close()
}

// worker claims morsels in index order from the shared counter, runs a
// replica pipeline over each, and streams the results to the morsel's
// channel. It exits when the counter runs out, the exchange stops, or its
// morsel fails.
func (e *exchangeOp) worker(qctx context.Context, next *atomic.Int64, nMorsels int) {
	defer e.wg.Done()
	for {
		select {
		case e.tokens <- struct{}{}:
		case <-e.done:
			return
		}
		m := int(next.Add(1) - 1)
		if m >= nMorsels {
			return
		}
		lo := m * morselSize
		hi := min(lo+morselSize, e.unitsEnd)
		if !e.runMorsel(qctx, lo, hi, e.chans[m]) {
			return
		}
	}
}

// runMorsel drives one replica pipeline to exhaustion, reporting work,
// stolen batches, and final counts. It returns false when the worker should
// stop claiming morsels.
func (e *exchangeOp) runMorsel(qctx context.Context, lo, hi int, ch chan morselItem) bool {
	rec := &morselRecorder{cancel: qctx, done: e.done}
	wctx := &Ctx{Context: qctx, rec: rec}
	root, shims := buildReplicaChain(e.pipe, e.source, lo, hi)
	for {
		b, err := root.NextBatch(wctx)
		work := rec.take()
		if err != nil {
			if errors.Is(err, errExchangeStopped) {
				return false
			}
			e.send(ch, morselItem{work: work, err: err})
			return false
		}
		if b == nil {
			rows := make([]int64, len(shims))
			batches := make([]int64, len(shims))
			for i, s := range shims {
				rows[i] = s.rows
				batches[i] = s.batches
			}
			return e.send(ch, morselItem{work: work, rows: rows, batches: batches, final: true})
		}
		if !e.send(ch, morselItem{work: work, batch: e.stealBatch(b)}) {
			return false
		}
	}
}

func (e *exchangeOp) send(ch chan morselItem, it morselItem) bool {
	select {
	case ch <- it:
		return true
	case <-e.done:
		return false
	}
}

// stealBatch detaches a replica operator's output arena so it can cross the
// channel without a copy; the consumer owns the stolen arena until it pulls
// the next batch. The producer gets a recycled arena from the free list when
// one is available (its next reset() then reuses it), falling back to a nil
// arena that reset() reallocates.
func (e *exchangeOp) stealBatch(b *Batch) *Batch {
	nb := &Batch{width: b.width, n: b.n, data: b.data[:b.n*b.width]}
	select {
	case b.data = <-e.free:
	default:
		b.data = nil
	}
	return nb
}

// markParallel stamps a tracing shim whose inner operator ran as replicas:
// the aggregated rows and batches are what the serial operator would have
// counted, and the wall time spans the shim's serial Open through pipeline
// exhaustion — the same inclusive window the serial shim records. Per-stage
// time is not separable when all stages run concurrently, so every stage of
// the pipeline reports the shared span.
func (t *tracedOp) markParallel(rows, batches int64) {
	t.rows = rows
	t.batches = batches
	t.exhausted = true
	t.wall = time.Since(t.start)
}
