package exec

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/testutil"
)

// The morsel-driven parallel path must be observationally identical to the
// serial run for every worker count: same counts, same checkpoint sequences
// (rows in the same order), same TrueCard stamps, the same work and
// materialization totals on success, and the same typed errors under budget
// / MaxMatRows / reopt / cancellation — and, like the serial run, it must
// match the scalar reference (reference_equiv_test.go). These tests sweep
// Workers ∈ {1, 2, 4, 8} over the same randomized corpus as the serial
// suite, with morselSize shrunk so the tiny fixtures split into many
// morsels.

var parallelWorkerCounts = []int{1, 2, 4, 8}

// shrinkMorsels drops morselSize so TinyDB-sized inputs exercise real
// multi-morsel scheduling, and lifts the GOMAXPROCS worker clamp so every
// requested worker count runs genuinely concurrently even on a single-core
// host — the equivalence property must hold regardless of cores. Both are
// restored afterwards; tests in this package run sequentially, so the swap
// cannot race.
func shrinkMorsels(tb testing.TB) {
	tb.Cleanup(SetMorselSize(64))
	tb.Cleanup(SetExchangeWorkerCap(64))
}

func TestScalarBatchParallelEquivalence(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	equivCorpus(t, db, 41, 8, func(q *query.Query, p *plan.Node, variant string) {
		name := q.SQL() + "/" + variant
		ref := newRefEval(db, q)
		ps := p.Clone()
		ctxS, eventsS := checkAgainstReference(t, db, q, ps, name, 1, ref)
		tcS := trueCards(ps)
		for _, w := range parallelWorkerCounts {
			pw := p.Clone()
			ctxW, eventsW := checkAgainstReference(t, db, q, pw, fmt.Sprintf("%s w=%d", name, w), w, ref)
			if ctxW.Work() != ctxS.Work() {
				t.Fatalf("%s w=%d: work %d, serial %d", name, w, ctxW.Work(), ctxS.Work())
			}
			if ctxW.MatRows() != ctxS.MatRows() {
				t.Fatalf("%s w=%d: matRows %d, serial %d", name, w, ctxW.MatRows(), ctxS.MatRows())
			}
			if !slices.Equal(eventsW, eventsS) {
				t.Fatalf("%s w=%d: checkpoints %+v, serial %+v", name, w, eventsW, eventsS)
			}
			if !maps.Equal(trueCards(pw), tcS) {
				t.Fatalf("%s w=%d: TrueCards %v, serial %v", name, w, trueCards(pw), tcS)
			}
		}
	})
}

func TestScalarBatchParallelEquivalenceUnderBudget(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	equivCorpus(t, db, 42, 4, func(q *query.Query, p *plan.Node, variant string) {
		name := q.SQL() + "/" + variant
		ref := newRefEval(db, q)
		probe, full := checkAgainstReference(t, db, q, p.Clone(), name, 1, ref)
		total := probe.Work()
		for _, budget := range []int64{1, total / 2, total - 1, total, total + 1} {
			if budget <= 0 {
				continue
			}
			eventsS, errS := budgetOutcome(t, db, q, p.Clone(), name, 1, budget, total, full, ref)
			for _, w := range []int{2, 4} {
				eventsW, errW := budgetOutcome(t, db, q, p.Clone(), fmt.Sprintf("%s w=%d", name, w), w, budget, total, full, ref)
				if !sameTypedError(errS, errW) {
					t.Fatalf("%s budget %d w=%d: serial err %v, parallel err %v", name, budget, w, errS, errW)
				}
				if !slices.Equal(eventsW, eventsS) {
					t.Fatalf("%s budget %d w=%d: checkpoints %+v, serial %+v", name, budget, w, eventsW, eventsS)
				}
			}
		}
	})
}

func TestScalarBatchParallelEquivalenceUnderMatLimit(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	equivCorpus(t, db, 43, 4, func(q *query.Query, p *plan.Node, variant string) {
		name := q.SQL() + "/" + variant
		probe, _ := checkAgainstReference(t, db, q, p.Clone(), name, 1, newRefEval(db, q))
		total := probe.MatRows()
		if total == 0 {
			return
		}
		for _, limit := range []int64{1, total / 2, total, total + 1} {
			if limit <= 0 {
				continue
			}
			for _, w := range []int{2, 4} {
				ctxW, err := matLimitOutcome(t, db, q, p.Clone(), fmt.Sprintf("%s w=%d", name, w), w, limit, total)
				if err == nil && ctxW.Work() != probe.Work() {
					t.Fatalf("%s limit %d w=%d: work %d, serial %d", name, limit, w, ctxW.Work(), probe.Work())
				}
			}
		}
	})
}

func TestScalarBatchParallelEquivalenceUnderReoptSignal(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	reoptCorpus(t, db, 6, func(q *query.Query, p *plan.Node, failMask query.BitSet) {
		ref := newRefEval(db, q)
		rcS := &ckptRecorder{failAt: failMask, t: t, name: q.SQL(), ref: ref}
		_, errS := Run(&Ctx{DB: db, Q: q, Controller: rcS}, p.Clone())
		for _, w := range []int{2, 4} {
			rcW := &ckptRecorder{failAt: failMask, t: t, name: q.SQL(), ref: ref}
			_, errW := Run(&Ctx{DB: db, Q: q, Controller: rcW, ExecWorkers: w}, p.Clone())
			if !sameTypedError(errS, errW) {
				t.Fatalf("%s w=%d: serial err %v, parallel err %v", q.SQL(), w, errS, errW)
			}
			var sig *ReoptSignal
			if !errors.As(errW, &sig) || sig.Node.Tables != failMask || sig.Actual != len(ref.projected(failMask)) {
				t.Fatalf("%s w=%d: expected ReoptSignal at %b with the reference cardinality, got %v", q.SQL(), w, uint32(failMask), errW)
			}
			if !slices.Equal(rcW.events, rcS.events) {
				t.Fatalf("%s w=%d: checkpoints %+v, serial %+v", q.SQL(), w, rcW.events, rcS.events)
			}
		}
	})
}

func TestScalarBatchParallelEquivalenceUnderCancellation(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	equivCorpus(t, db, 45, 3, func(q *query.Query, p *plan.Node, variant string) {
		for _, w := range []int{2, 4} {
			ctxW := &Ctx{DB: db, Q: q, Controller: NopController{}, Context: cancelled, ExecWorkers: w}
			if _, err := Run(ctxW, p.Clone()); !errors.Is(err, context.Canceled) {
				t.Fatalf("%s/%s w=%d: expected context.Canceled, got %v", q.SQL(), variant, w, err)
			}
		}
	})
}

// TestScalarBatchParallelWithTraceAndWrap checks that the exchange composes
// with the observability shims (aggregated per-node Rows/ActualRows match
// the serial trace) and that operators replaced by a WrapFunc force their
// pipelines back to the serial path without changing results.
func TestScalarBatchParallelWithTraceAndWrap(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	for _, wrap := range []WrapFunc{nil, wrapEven} {
		equivCorpus(t, db, 46, 4, func(q *query.Query, p *plan.Node, variant string) {
			name := q.SQL() + "/" + variant
			ref := newRefEval(db, q)
			trS := &obs.ExecTrace{}
			ps := p.Clone()
			ctxS := &Ctx{DB: db, Q: q, Controller: NopController{}, Trace: trS, Wrap: wrap}
			cS, errS := Run(ctxS, ps)
			if errS != nil {
				t.Fatalf("%s: serial err %v", name, errS)
			}
			checkTrace(t, name, ps, trS)
			for _, w := range []int{2, 4} {
				trW := &obs.ExecTrace{}
				pw := p.Clone()
				rc := &ckptRecorder{t: t, name: name, ref: ref}
				ctxW := &Ctx{DB: db, Q: q, Controller: rc, Trace: trW, Wrap: wrap, ExecWorkers: w}
				cW, errW := Run(ctxW, pw)
				if errW != nil {
					t.Fatalf("%s w=%d: err %v", name, w, errW)
				}
				if cW != cS || ctxW.Work() != ctxS.Work() {
					t.Fatalf("%s w=%d: results differ under trace (counts %d/%d, work %d/%d)", name, w, cW, cS, ctxW.Work(), ctxS.Work())
				}
				checkTrueCards(t, name, pw, ref)
				checkTrace(t, fmt.Sprintf("%s w=%d", name, w), pw, trW)
			}
		})
	}
}

// TestScalarBatchParallelNoGoroutineLeaks drives parallel runs to success,
// budget failure, and cancellation, then checks the exchange joined every
// worker it spawned.
func TestScalarBatchParallelNoGoroutineLeaks(t *testing.T) {
	shrinkMorsels(t)
	db := testutil.TinyDB()
	before := runtime.NumGoroutine()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	equivCorpus(t, db, 47, 3, func(q *query.Query, p *plan.Node, variant string) {
		for _, w := range []int{2, 8} {
			ctxOK := &Ctx{DB: db, Q: q, Controller: NopController{}, ExecWorkers: w}
			if _, err := Run(ctxOK, p.Clone()); err != nil {
				t.Fatalf("%s/%s w=%d: %v", q.SQL(), variant, w, err)
			}
			_, _ = Run(&Ctx{DB: db, Q: q, Controller: NopController{}, Budget: 10, ExecWorkers: w}, p.Clone())
			_, _ = Run(&Ctx{DB: db, Q: q, Controller: NopController{}, Context: cancelled, ExecWorkers: w}, p.Clone())
		}
	})
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
}
