package exec

import (
	"context"
	"errors"
	"testing"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// The scalar and batch executors must be observationally identical: same
// result rows in the same order, same TrueCard stamps on every node, same
// checkpoint sequences (nodes, cardinalities, row contents), the same work
// totals, and the same typed errors under budget / MaxMatRows /
// cancellation limits. These tests run a randomized corpus through both
// paths and compare everything observable.
//
// One caveat is intentional: when Budget AND MaxMatRows are BOTH set and
// both trip inside the same drained batch, the lumped charges can surface
// ErrBudget where the scalar path surfaces a *ResourceError (or vice
// versa); the limits are therefore exercised separately below, which is
// also how the engine configures them in practice.

// ckptEvent is one checkpoint observation: which node materialized, how
// many rows, and a content hash of the rows in order.
type ckptEvent struct {
	mask query.BitSet
	card int
	hash uint64
}

type ckptRecorder struct {
	events []ckptEvent
	failAt query.BitSet // when non-zero, return a ReoptSignal at this mask
}

func (r *ckptRecorder) OnMaterialized(n *plan.Node, rows [][]int64) error {
	r.events = append(r.events, ckptEvent{n.Tables, len(rows), hashRows(rows)})
	if r.failAt != 0 && n.Tables == r.failAt {
		return &ReoptSignal{Node: n, Actual: len(rows)}
	}
	return nil
}

func hashRows(rows [][]int64) uint64 {
	var h uint64 = 14695981039346656037
	for _, row := range rows {
		for _, v := range row {
			h ^= uint64(v)
			h *= 1099511628211
		}
	}
	return h
}

// runPath executes a plan on one path, returning the count, a content hash
// of the emitted rows in order, and the error.
func runPath(ctx *Ctx, p *plan.Node, batch bool) (int, uint64, error) {
	var hash uint64 = 14695981039346656037
	mix := func(row []int64) {
		for _, v := range row {
			hash ^= uint64(v)
			hash *= 1099511628211
		}
	}
	count := 0
	if batch {
		op, err := BuildBatch(ctx, p)
		if err != nil {
			return 0, 0, err
		}
		defer op.Close()
		if err := op.Open(ctx); err != nil {
			return 0, 0, err
		}
		for {
			b, err := op.NextBatch(ctx)
			if err != nil {
				return 0, 0, err
			}
			if b == nil {
				break
			}
			for i := 0; i < b.Len(); i++ {
				mix(b.Row(i))
			}
			count += b.Len()
		}
	} else {
		op, err := Build(ctx, p)
		if err != nil {
			return 0, 0, err
		}
		defer op.Close()
		if err := op.Open(ctx); err != nil {
			return 0, 0, err
		}
		for {
			t, ok, err := op.Next(ctx)
			if err != nil {
				return 0, 0, err
			}
			if !ok {
				break
			}
			mix(t)
			count++
		}
	}
	p.TrueCard = float64(count)
	return count, hash, nil
}

// trueCards collects (op, mask) -> TrueCard over the whole tree.
func trueCards(p *plan.Node) map[query.BitSet]float64 {
	out := make(map[query.BitSet]float64)
	p.Walk(func(n *plan.Node) { out[n.Tables] = n.TrueCard })
	return out
}

// equivCorpus yields randomized (query, plan-variant) pairs; see
// planVariants for the variants.
func equivCorpus(t *testing.T, db *storage.Database, seed int64, n int, fn func(q *query.Query, p *plan.Node, variant string)) {
	g := workload.NewGenerator(db, seed)
	for i := 0; i < n; i++ {
		planVariants(g.Query(1+i%3), fn)
	}
}

// planVariants yields the plan variants of one query: its canonical plan
// under each join algorithm, a mixed-operator assignment, and an index-scan
// conversion.
func planVariants(q *query.Query, fn func(q *query.Query, p *plan.Node, variant string)) {
	base := CanonicalPlan(q, q.AllTablesMask())
	for _, op := range []plan.PhysOp{plan.HashJoin, plan.MergeJoin, plan.NestLoopJoin} {
		p := base.Clone()
		setJoinOps(p, op)
		fn(q, p, op.String())
	}
	// mixed operators: alternate join algorithms down the tree
	mixed := base.Clone()
	k := 0
	mixed.Walk(func(x *plan.Node) {
		if x.Op.IsJoin() {
			x.Op = []plan.PhysOp{plan.HashJoin, plan.MergeJoin, plan.NestLoopJoin}[k%3]
			k++
		}
	})
	fn(q, mixed, "mixed")
	// index scans on every eligible leaf
	idx := base.Clone()
	converted := false
	idx.Walk(func(x *plan.Node) {
		if x.IsLeaf() && len(x.Preds) > 0 && x.Preds[0].Op != query.OpNE {
			x.Op = plan.IndexScan
			x.IndexPred = &x.Preds[0]
			converted = true
		}
	})
	if converted {
		fn(q, idx, "indexscan")
	}
}

func TestScalarBatchEquivalence(t *testing.T) {
	db := testutil.TinyDB()
	equivCorpus(t, db, 41, 12, func(q *query.Query, p *plan.Node, variant string) {
		ps, pb := p.Clone(), p.Clone()
		rcS, rcB := &ckptRecorder{}, &ckptRecorder{}
		ctxS := &Ctx{DB: db, Q: q, Controller: rcS}
		ctxB := &Ctx{DB: db, Q: q, Controller: rcB}
		cS, hS, errS := runPath(ctxS, ps, false)
		cB, hB, errB := runPath(ctxB, pb, true)
		if errS != nil || errB != nil {
			t.Fatalf("%s/%s: scalar err %v, batch err %v", q.SQL(), variant, errS, errB)
		}
		if cS != cB {
			t.Fatalf("%s/%s: scalar count %d, batch count %d", q.SQL(), variant, cS, cB)
		}
		if hS != hB {
			t.Fatalf("%s/%s: result row contents differ (scalar %x, batch %x)", q.SQL(), variant, hS, hB)
		}
		if ctxS.Work() != ctxB.Work() {
			t.Fatalf("%s/%s: scalar work %d, batch work %d", q.SQL(), variant, ctxS.Work(), ctxB.Work())
		}
		if ctxS.MatRows() != ctxB.MatRows() {
			t.Fatalf("%s/%s: scalar matRows %d, batch matRows %d", q.SQL(), variant, ctxS.MatRows(), ctxB.MatRows())
		}
		if len(rcS.events) != len(rcB.events) {
			t.Fatalf("%s/%s: scalar %d checkpoints, batch %d", q.SQL(), variant, len(rcS.events), len(rcB.events))
		}
		for i := range rcS.events {
			if rcS.events[i] != rcB.events[i] {
				t.Fatalf("%s/%s: checkpoint %d differs: scalar %+v, batch %+v", q.SQL(), variant, i, rcS.events[i], rcB.events[i])
			}
		}
		tcS, tcB := trueCards(ps), trueCards(pb)
		for mask, v := range tcS {
			if tcB[mask] != v {
				t.Fatalf("%s/%s: TrueCard at %b: scalar %v, batch %v", q.SQL(), variant, uint32(mask), v, tcB[mask])
			}
		}
	})
}

// sameTypedError reports whether two execution errors are the same typed
// failure: both nil, both ErrBudget, equal *ResourceError payloads, equal
// *ReoptSignal targets, or the same context error.
func sameTypedError(a, b error) bool {
	switch {
	case a == nil || b == nil:
		return a == nil && b == nil
	case errors.Is(a, ErrBudget) || errors.Is(b, ErrBudget):
		return errors.Is(a, ErrBudget) && errors.Is(b, ErrBudget)
	}
	var ra, rb *ResourceError
	if errors.As(a, &ra) || errors.As(b, &rb) {
		if !errors.As(a, &ra) || !errors.As(b, &rb) {
			return false
		}
		return *ra == *rb
	}
	var sa, sb *ReoptSignal
	if errors.As(a, &sa) || errors.As(b, &sb) {
		if !errors.As(a, &sa) || !errors.As(b, &sb) {
			return false
		}
		return sa.Node.Tables == sb.Node.Tables && sa.Actual == sb.Actual
	}
	return errors.Is(a, b) || errors.Is(b, a)
}

func TestScalarBatchEquivalenceUnderBudget(t *testing.T) {
	db := testutil.TinyDB()
	equivCorpus(t, db, 42, 6, func(q *query.Query, p *plan.Node, variant string) {
		// measure the full cost once, then squeeze budgets across the range
		probe := &Ctx{DB: db, Q: q, Controller: NopController{}}
		if _, err := Run(probe, p.Clone()); err != nil {
			t.Fatalf("%s/%s: unlimited run failed: %v", q.SQL(), variant, err)
		}
		total := probe.Work()
		for _, budget := range []int64{1, total / 4, total / 2, total - 1, total, total + 1} {
			if budget <= 0 {
				continue
			}
			rcS, rcB := &ckptRecorder{}, &ckptRecorder{}
			ctxS := &Ctx{DB: db, Q: q, Controller: rcS, Budget: budget}
			ctxB := &Ctx{DB: db, Q: q, Controller: rcB, Budget: budget}
			_, _, errS := runPath(ctxS, p.Clone(), false)
			_, _, errB := runPath(ctxB, p.Clone(), true)
			if !sameTypedError(errS, errB) {
				t.Fatalf("%s/%s budget %d: scalar err %v, batch err %v", q.SQL(), variant, budget, errS, errB)
			}
			if (errS == nil) != (budget >= total) {
				t.Fatalf("%s/%s budget %d of %d: unexpected scalar outcome %v", q.SQL(), variant, budget, total, errS)
			}
			// budget failures land between the same two checkpoints on both
			// paths, so the recorded sequences match even on error
			if len(rcS.events) != len(rcB.events) {
				t.Fatalf("%s/%s budget %d: scalar %d checkpoints, batch %d", q.SQL(), variant, budget, len(rcS.events), len(rcB.events))
			}
			for i := range rcS.events {
				if rcS.events[i] != rcB.events[i] {
					t.Fatalf("%s/%s budget %d: checkpoint %d differs", q.SQL(), variant, budget, i)
				}
			}
		}
	})
}

func TestScalarBatchEquivalenceUnderMatLimit(t *testing.T) {
	db := testutil.TinyDB()
	equivCorpus(t, db, 43, 6, func(q *query.Query, p *plan.Node, variant string) {
		probe := &Ctx{DB: db, Q: q, Controller: NopController{}}
		if _, err := Run(probe, p.Clone()); err != nil {
			t.Fatal(err)
		}
		total := probe.MatRows()
		if total == 0 {
			return // plan materializes nothing; no limit to trip
		}
		for _, limit := range []int64{1, total / 2, total - 1, total, total + 1} {
			if limit <= 0 {
				continue
			}
			ctxS := &Ctx{DB: db, Q: q, Controller: NopController{}, MaxMatRows: limit}
			ctxB := &Ctx{DB: db, Q: q, Controller: NopController{}, MaxMatRows: limit}
			_, _, errS := runPath(ctxS, p.Clone(), false)
			_, _, errB := runPath(ctxB, p.Clone(), true)
			if !sameTypedError(errS, errB) {
				t.Fatalf("%s/%s limit %d: scalar err %v, batch err %v", q.SQL(), variant, limit, errS, errB)
			}
			if ctxS.MatRows() != ctxB.MatRows() {
				t.Fatalf("%s/%s limit %d: scalar matRows %d, batch matRows %d", q.SQL(), variant, limit, ctxS.MatRows(), ctxB.MatRows())
			}
			// work totals are only comparable on success: at a mid-drain
			// failure the batch child has already charged its whole chunk
			// while the scalar child stopped at the offending tuple
			if errS == nil && ctxS.Work() != ctxB.Work() {
				t.Fatalf("%s/%s limit %d: scalar work %d, batch work %d", q.SQL(), variant, limit, ctxS.Work(), ctxB.Work())
			}
		}
	})
}

func TestScalarBatchEquivalenceUnderReoptSignal(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 44)
	tested := 0
	for i := 0; i < 20 && tested < 8; i++ {
		q := g.Query(2)
		p := CanonicalPlan(q, q.AllTablesMask())
		failMask := p.Left.Right.Tables // first hash build to materialize
		rcS := &ckptRecorder{failAt: failMask}
		rcB := &ckptRecorder{failAt: failMask}
		_, _, errS := runPath(&Ctx{DB: db, Q: q, Controller: rcS}, p.Clone(), false)
		_, _, errB := runPath(&Ctx{DB: db, Q: q, Controller: rcB}, p.Clone(), true)
		if !sameTypedError(errS, errB) {
			t.Fatalf("%s: scalar err %v, batch err %v", q.SQL(), errS, errB)
		}
		var sig *ReoptSignal
		if !errors.As(errS, &sig) || sig.Node.Tables != failMask {
			t.Fatalf("%s: expected ReoptSignal at %b, got %v", q.SQL(), uint32(failMask), errS)
		}
		tested++
	}
	if tested == 0 {
		t.Fatal("no multi-join queries generated")
	}
}

func TestScalarBatchEquivalenceUnderCancellation(t *testing.T) {
	db := testutil.TinyDB()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	equivCorpus(t, db, 45, 4, func(q *query.Query, p *plan.Node, variant string) {
		ctxS := &Ctx{DB: db, Q: q, Controller: NopController{}, Context: cancelled}
		ctxB := &Ctx{DB: db, Q: q, Controller: NopController{}, Context: cancelled}
		_, _, errS := runPath(ctxS, p.Clone(), false)
		_, _, errB := runPath(ctxB, p.Clone(), true)
		// a pre-cancelled context must fail both paths with the context's
		// error; the exact unwind point may differ (poll cadence is batch-
		// granular) but the typed error must not
		if !errors.Is(errS, context.Canceled) || !errors.Is(errB, context.Canceled) {
			t.Fatalf("%s/%s: scalar err %v, batch err %v", q.SQL(), variant, errS, errB)
		}
	})
}

// TestScalarBatchEquivalenceWithTraceAndWrap exercises the compatibility
// adapters: tracing shims on both paths must report the same per-node row
// counts, and a scalar-level WrapFunc must compose with batch producers
// (lift/lower round trip) without changing results.
func TestScalarBatchEquivalenceWithTraceAndWrap(t *testing.T) {
	db := testutil.TinyDB()
	// wrapEven wraps operators covering an even number of tables in a
	// pass-through scalar shim, forcing the lift path for some operators
	// while the unwrap optimization keeps the rest on the batch path.
	wrapEven := func(ctx *Ctx, op Operator, n *plan.Node) Operator {
		if len(n.Tables.Indices())%2 == 0 {
			return passThrough{op}
		}
		return op
	}
	equivCorpus(t, db, 46, 6, func(q *query.Query, p *plan.Node, variant string) {
		trS, trB := &obs.ExecTrace{}, &obs.ExecTrace{}
		ctxS := &Ctx{DB: db, Q: q, Controller: NopController{}, Trace: trS, Wrap: wrapEven}
		ctxB := &Ctx{DB: db, Q: q, Controller: NopController{}, Trace: trB, Wrap: wrapEven}
		cS, hS, errS := runPath(ctxS, p.Clone(), false)
		cB, hB, errB := runPath(ctxB, p.Clone(), true)
		if errS != nil || errB != nil {
			t.Fatalf("%s/%s: scalar err %v, batch err %v", q.SQL(), variant, errS, errB)
		}
		if cS != cB || hS != hB {
			t.Fatalf("%s/%s: results differ under trace+wrap (counts %d/%d)", q.SQL(), variant, cS, cB)
		}
		for _, s := range trS.Ops {
			b := trB.ByMask(s.Mask)
			if b == nil {
				t.Fatalf("%s/%s: batch trace missing op at %b", q.SQL(), variant, uint32(s.Mask))
			}
			if b.Rows != s.Rows || b.ActualRows != s.ActualRows {
				t.Fatalf("%s/%s: trace at %b: scalar rows=%d actual=%v, batch rows=%d actual=%v",
					q.SQL(), variant, uint32(s.Mask), s.Rows, s.ActualRows, b.Rows, b.ActualRows)
			}
		}
	})
}

// passThrough is a no-op scalar wrapper used to force the lift adapter.
type passThrough struct{ inner Operator }

func (p passThrough) Open(ctx *Ctx) error                { return p.inner.Open(ctx) }
func (p passThrough) Next(ctx *Ctx) (Tuple, bool, error) { return p.inner.Next(ctx) }
func (p passThrough) Close()                             { p.inner.Close() }
