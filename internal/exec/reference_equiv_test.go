package exec

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// The executor is held to a scalar reference: refEval (projection_equiv_test.go),
// a row-at-a-time nested-loop evaluator over the raw columns that shares no
// code with the executor. The TestScalarBatch* suites run a randomized
// corpus of plan variants through the batch executor and check everything
// the reference can see — COUNT(*), every checkpoint's buffered rows (as a
// multiset, projected to the live columns), every executed node's TrueCard —
// plus the executor's own invariants under limits: a work budget fails with
// ErrBudget exactly when it is below the unlimited run's work, after a
// prefix of the unlimited run's checkpoints; a materialized-rows limit fails
// with a *ResourceError naming the first row over it; a controller's
// *ReoptSignal unwinds with the reference cardinality; a cancelled context
// surfaces context.Canceled. Work totals, per-node TrueCards and checkpoint
// sequences are additionally pinned per variant in
// testdata/projection_pins.golden (TestProjectedExecution).

// ckptEvent is one checkpoint observation: which node materialized, how
// many rows, and an order-sensitive content hash of the rows.
type ckptEvent struct {
	mask query.BitSet
	card int
	hash uint64
}

// ckptRecorder records checkpoints. With ref set, every checkpoint's rows
// must equal the reference rows of its subset; with failAt set, the
// checkpoint at that subset answers with a *ReoptSignal.
type ckptRecorder struct {
	NopController // no pipelined checks
	events        []ckptEvent
	failAt        query.BitSet
	t             testing.TB
	name          string
	ref           *refEval
}

func (r *ckptRecorder) OnMaterialized(n *plan.Node, rows plan.Rows) error {
	r.events = append(r.events, ckptEvent{n.Tables, rows.N, hashRows(rows)})
	if r.ref != nil {
		r.ref.checkRows(r.t, r.name, n.Tables, rows)
	}
	if r.failAt != 0 && n.Tables == r.failAt {
		return &ReoptSignal{Node: n, Actual: rows.N}
	}
	return nil
}

// matTotal sums the recorded checkpoint cardinalities: every buffered row is
// checkpointed, so on success it equals the Ctx's MatRows.
func (r *ckptRecorder) matTotal() int64 {
	var n int64
	for _, e := range r.events {
		n += int64(e.card)
	}
	return n
}

func hashRows(rows plan.Rows) uint64 {
	var h uint64 = 14695981039346656037
	for _, v := range rows.Data[:rows.N*rows.Width] {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// trueCards collects mask -> TrueCard over the whole tree.
func trueCards(p *plan.Node) map[query.BitSet]float64 {
	out := make(map[query.BitSet]float64)
	p.Walk(func(n *plan.Node) { out[n.Tables] = n.TrueCard })
	return out
}

// indexProbed returns the inner leaves of p's index nested loops. They are
// never run as operators — the join probes the leaf table's index directly —
// so they carry no TrueCard stamp and no trace record.
func indexProbed(p *plan.Node) map[*plan.Node]bool {
	probed := make(map[*plan.Node]bool)
	p.Walk(func(n *plan.Node) {
		if n.Op == plan.NestLoopJoin && n.Right.IsLeaf() && n.Right.Op != plan.MatScan && len(n.JoinConds) > 0 {
			probed[n.Right] = true
		}
	})
	return probed
}

// checkTrueCards demands every executed node's TrueCard equal the reference
// cardinality of its subset.
func checkTrueCards(t testing.TB, name string, p *plan.Node, ref *refEval) {
	t.Helper()
	probed := indexProbed(p)
	p.Walk(func(n *plan.Node) {
		if probed[n] {
			return
		}
		if want := len(ref.projected(n.Tables)); int(n.TrueCard) != want {
			t.Fatalf("%s: TrueCard %v at %b, reference %d", name, n.TrueCard, uint32(n.Tables), want)
		}
	})
}

// isPrefix reports whether the events of a limited run are a prefix of the
// unlimited run's: a limit stops execution between or inside pipeline
// breakers, never reorders or alters the checkpoints before it.
func isPrefix(part, full []ckptEvent) bool {
	return len(part) <= len(full) && slices.Equal(part, full[:len(part)])
}

// equivCorpus yields randomized (query, plan-variant) pairs; see
// planVariants for the variants.
func equivCorpus(t testing.TB, db *storage.Database, seed int64, n int, fn func(q *query.Query, p *plan.Node, variant string)) {
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
	for _, op := range []plan.PhysOp{plan.HashJoin, plan.NestLoopJoin} {
		p := base.Clone()
		setJoinOps(p, op)
		fn(q, p, op.String())
	}
	// mixed operators: alternate join algorithms down the tree
	mixed := base.Clone()
	k := 0
	mixed.Walk(func(x *plan.Node) {
		if x.Op.IsJoin() {
			x.Op = []plan.PhysOp{plan.HashJoin, plan.NestLoopJoin}[k%2]
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

// checkAgainstReference runs p unlimited and holds it to the reference:
// count, checkpoint rows, TrueCards, and the buffered-rows total. It returns
// the run's Ctx and checkpoint events.
func checkAgainstReference(t testing.TB, db *storage.Database, q *query.Query, p *plan.Node, name string, ref *refEval) (*Ctx, []ckptEvent) {
	t.Helper()
	rc := &ckptRecorder{t: t, name: name, ref: ref}
	ctx := &Ctx{DB: db, Q: q, Controller: rc}
	count, err := Run(ctx, p)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if want := len(ref.projected(q.AllTablesMask())); count != want {
		t.Fatalf("%s: count %d, reference %d", name, count, want)
	}
	checkTrueCards(t, name, p, ref)
	if ctx.MatRows() != rc.matTotal() {
		t.Fatalf("%s: MatRows %d, checkpointed rows %d", name, ctx.MatRows(), rc.matTotal())
	}
	return ctx, rc.events
}

// TestScalarBatchEquivalence runs the corpus over TinyDB, whose tables each
// fit one production-size segment, and over a copy sealed at a small
// segment size, where zone maps prune the scans and the inner tables of
// index nested loops; the second run must reach at least one pruned inner.
func TestScalarBatchEquivalence(t *testing.T) {
	db := testutil.TinyDB()
	equivCorpus(t, db, 41, 12, func(q *query.Query, p *plan.Node, variant string) {
		checkAgainstReference(t, db, q, p, q.SQL()+"/"+variant, newRefEval(db, q))
	})
	seg := segTinyDB(t)
	prunedInners := 0
	equivCorpus(t, seg, 41, 12, func(q *query.Query, p *plan.Node, variant string) {
		checkAgainstReference(t, seg, q, p, "segmented/"+q.SQL()+"/"+variant, newRefEval(seg, q))
		for leaf := range indexProbed(p) {
			if newSegScanState(&Ctx{DB: seg, Q: q}, seg.Table(leaf.Table), leaf.Preds, false) != nil {
				prunedInners++
			}
		}
	})
	if prunedInners == 0 {
		t.Fatal("no index nested loop over the segmented copy pruned its inner table")
	}
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

// budgetOutcome checks one budgeted run against the unlimited run's total
// work and checkpoint events, returning the run's events and error.
func budgetOutcome(t testing.TB, db *storage.Database, q *query.Query, p *plan.Node, name string, budget, total int64, full []ckptEvent, ref *refEval) ([]ckptEvent, error) {
	t.Helper()
	rc := &ckptRecorder{t: t, name: name, ref: ref}
	_, err := Run(&Ctx{DB: db, Q: q, Controller: rc, Budget: budget}, p)
	if budget >= total {
		if err != nil {
			t.Fatalf("%s budget %d of %d: %v", name, budget, total, err)
		}
	} else if !errors.Is(err, ErrBudget) {
		t.Fatalf("%s budget %d of %d: want ErrBudget, got %v", name, budget, total, err)
	}
	if !isPrefix(rc.events, full) {
		t.Fatalf("%s budget %d: checkpoints %v are not a prefix of the unlimited run's %v", name, budget, rc.events, full)
	}
	return rc.events, err
}

func TestScalarBatchEquivalenceUnderBudget(t *testing.T) {
	db := testutil.TinyDB()
	equivCorpus(t, db, 42, 6, func(q *query.Query, p *plan.Node, variant string) {
		name := q.SQL() + "/" + variant
		ref := newRefEval(db, q)
		probe, full := checkAgainstReference(t, db, q, p.Clone(), name, ref)
		total := probe.Work()
		for _, budget := range []int64{1, total / 4, total / 2, total - 1, total, total + 1} {
			if budget > 0 {
				budgetOutcome(t, db, q, p.Clone(), name, budget, total, full, ref)
			}
		}
	})
}

// matLimitOutcome checks one run under a materialized-rows limit against
// the unlimited run's buffered total: it fails exactly when the limit is
// below the total, with the payload naming the first row over the limit.
func matLimitOutcome(t testing.TB, db *storage.Database, q *query.Query, p *plan.Node, name string, limit, total int64) (*Ctx, error) {
	t.Helper()
	ctx := &Ctx{DB: db, Q: q, Controller: NopController{}, MaxMatRows: limit}
	_, err := Run(ctx, p)
	if limit >= total {
		if err != nil {
			t.Fatalf("%s limit %d of %d: %v", name, limit, total, err)
		}
		if ctx.MatRows() != total {
			t.Fatalf("%s limit %d: MatRows %d, want %d", name, limit, ctx.MatRows(), total)
		}
		return ctx, nil
	}
	want := ResourceError{Resource: "materialized-rows", Limit: limit, Used: limit + 1}
	var re *ResourceError
	if !errors.As(err, &re) || *re != want {
		t.Fatalf("%s limit %d of %d: want %v, got %v", name, limit, total, &want, err)
	}
	if ctx.MatRows() != limit+1 {
		t.Fatalf("%s limit %d: MatRows %d at failure, want %d", name, limit, ctx.MatRows(), limit+1)
	}
	return ctx, err
}

func TestScalarBatchEquivalenceUnderMatLimit(t *testing.T) {
	db := testutil.TinyDB()
	equivCorpus(t, db, 43, 6, func(q *query.Query, p *plan.Node, variant string) {
		name := q.SQL() + "/" + variant
		probe, _ := checkAgainstReference(t, db, q, p.Clone(), name, newRefEval(db, q))
		total := probe.MatRows()
		if total == 0 {
			return // plan materializes nothing; no limit to trip
		}
		for _, limit := range []int64{1, total / 2, total - 1, total, total + 1} {
			if limit <= 0 {
				continue
			}
			if ctx, err := matLimitOutcome(t, db, q, p.Clone(), name, limit, total); err == nil && ctx.Work() != probe.Work() {
				t.Fatalf("%s limit %d: work %d, unlimited %d", name, limit, ctx.Work(), probe.Work())
			}
		}
	})
}

// reoptCorpus yields two-join queries with their canonical plan and the
// subset of its first hash build, where a controller pauses execution.
func reoptCorpus(t *testing.T, db *storage.Database, n int, fn func(q *query.Query, p *plan.Node, failMask query.BitSet)) {
	g := workload.NewGenerator(db, 44)
	tested := 0
	for i := 0; i < 20 && tested < n; i++ {
		q := g.Query(2)
		p := CanonicalPlan(q, q.AllTablesMask())
		fn(q, p, p.Left.Right.Tables)
		tested++
	}
	if tested == 0 {
		t.Fatal("no multi-join queries generated")
	}
}

func TestScalarBatchEquivalenceUnderReoptSignal(t *testing.T) {
	db := testutil.TinyDB()
	reoptCorpus(t, db, 8, func(q *query.Query, p *plan.Node, failMask query.BitSet) {
		ref := newRefEval(db, q)
		rc := &ckptRecorder{failAt: failMask, t: t, name: q.SQL(), ref: ref}
		_, err := Run(&Ctx{DB: db, Q: q, Controller: rc}, p)
		var sig *ReoptSignal
		if !errors.As(err, &sig) || sig.Node.Tables != failMask {
			t.Fatalf("%s: expected ReoptSignal at %b, got %v", q.SQL(), uint32(failMask), err)
		}
		if want := len(ref.projected(failMask)); sig.Actual != want {
			t.Fatalf("%s: ReoptSignal actual %d, reference %d", q.SQL(), sig.Actual, want)
		}
		if last := rc.events[len(rc.events)-1]; last.mask != failMask {
			t.Fatalf("%s: execution continued past the paused checkpoint", q.SQL())
		}
	})
}

func TestScalarBatchEquivalenceUnderCancellation(t *testing.T) {
	db := testutil.TinyDB()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	equivCorpus(t, db, 45, 4, func(q *query.Query, p *plan.Node, variant string) {
		rc := &ckptRecorder{}
		_, err := Run(&Ctx{DB: db, Q: q, Controller: rc, Context: cancelled}, p)
		// a pre-cancelled context fails with the context's error at the
		// first work charge, before any pipeline breaker completes
		if !errors.Is(err, context.Canceled) || len(rc.events) != 0 {
			t.Fatalf("%s/%s: want context.Canceled before any checkpoint, got %v after %d", q.SQL(), variant, err, len(rc.events))
		}
	})
}

// passThrough is a no-op wrapper: replacing an operator with it changes the
// operator tree without changing its output.
type passThrough struct{ inner BatchOperator }

func (p passThrough) Open(ctx *Ctx) error                { return p.inner.Open(ctx) }
func (p passThrough) NextBatch(ctx *Ctx) (*Batch, error) { return p.inner.NextBatch(ctx) }
func (p passThrough) Close()                             { p.inner.Close() }

// wrapEven wraps operators covering an even number of tables in a
// pass-through shim, so some operators of every plan are replaced and the
// rest are not.
func wrapEven(ctx *Ctx, op BatchOperator, n *plan.Node) BatchOperator {
	if len(n.Tables.Indices())%2 == 0 {
		return passThrough{op}
	}
	return op
}

// checkTrace demands one stats record per executed node whose row count and
// actual cardinality equal the node's TrueCard.
func checkTrace(t testing.TB, name string, p *plan.Node, tr *obs.ExecTrace) {
	t.Helper()
	probed := indexProbed(p)
	p.Walk(func(n *plan.Node) {
		if probed[n] {
			return
		}
		s := tr.ByMask(n.Tables)
		if s == nil {
			t.Fatalf("%s: trace missing op at %b", name, uint32(n.Tables))
		}
		if s.Op != n.Op.String() || s.Rows != int64(n.TrueCard) || s.ActualRows != n.TrueCard {
			t.Fatalf("%s: trace at %b: %s rows=%d actual=%v, node %v TrueCard %v",
				name, uint32(n.Tables), s.Op, s.Rows, s.ActualRows, n.Op, n.TrueCard)
		}
	})
}

// TestScalarBatchEquivalenceWithTraceAndWrap: the tracing shim and a
// WrapFunc compose with every operator without changing results — the
// reference still holds, every node's trace record matches its TrueCard,
// and work and checkpoints equal the plain run's.
func TestScalarBatchEquivalenceWithTraceAndWrap(t *testing.T) {
	db := testutil.TinyDB()
	equivCorpus(t, db, 46, 6, func(q *query.Query, p *plan.Node, variant string) {
		name := q.SQL() + "/" + variant
		ref := newRefEval(db, q)
		plain, want := checkAgainstReference(t, db, q, p.Clone(), name, ref)
		tr := &obs.ExecTrace{}
		rc := &ckptRecorder{t: t, name: name, ref: ref}
		pw := p.Clone()
		ctx := &Ctx{DB: db, Q: q, Controller: rc, Trace: tr, Wrap: wrapEven}
		count, err := Run(ctx, pw)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if count != len(ref.projected(q.AllTablesMask())) {
			t.Fatalf("%s: count %d under trace+wrap, reference %d", name, count, len(ref.projected(q.AllTablesMask())))
		}
		if ctx.Work() != plain.Work() || len(rc.events) != len(want) || !isPrefix(rc.events, want) {
			t.Fatalf("%s: trace+wrap changed work (%d vs %d) or checkpoints", name, ctx.Work(), plain.Work())
		}
		checkTrueCards(t, name, pw, ref)
		checkTrace(t, name, pw, tr)
	})
}

// FuzzExecMatchesReference is the executor's differential fuzz target: a
// query generated on SmallDB from seed (one to three joins) and one of its
// plan variants (see planVariants). The count and every
// checkpoint's buffered rows must equal the scalar reference projected to
// the live columns, and every executed node's TrueCard the reference
// cardinality of its subset. The seed corpus runs under plain `go test`;
// `go test -fuzz FuzzExecMatchesReference ./internal/exec` searches further.
func FuzzExecMatchesReference(f *testing.F) {
	db := testutil.SmallDB()
	for seed := int64(1); seed <= 12; seed++ {
		for variant := uint8(0); variant < 5; variant++ {
			f.Add(seed, variant)
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, variant uint8) {
		q := workload.NewGenerator(db, seed).Query(1 + int(uint64(seed)%3))
		var plans []*plan.Node
		var names []string
		planVariants(q, func(_ *query.Query, p *plan.Node, v string) {
			plans = append(plans, p)
			names = append(names, v)
		})
		i := int(variant) % len(plans)
		name := fmt.Sprintf("seed %d %s: %s", seed, names[i], q.SQL())
		checkAgainstReference(t, db, q, plans[i], name, newRefEval(db, q))
	})
}
