package exec

import (
	"errors"
	"math"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
)

// Operator lifecycle regression suite: a failed Open or a mid-drain error
// must still tear the operator tree down — every operator that was opened
// gets closed, closes are idempotent, and pipeline breakers release their
// buffered state after a failed Open.

// countingBatchOp counts Open/Close calls and can fail its inner Open on
// command (when its owner's failing counter selects it).
type countingBatchOp struct {
	inner  BatchOperator
	node   *plan.Node
	owner  *lifecycleProbe
	opens  int
	closes int
}

type lifecycleProbe struct {
	ops      []*countingBatchOp
	openSeq  int // Open attempts so far, across the tree
	failOpen int // fail the N-th Open attempt (1-based), 0 = never
}

var errInjectedOpen = errors.New("exec test: injected Open failure")

// wrap is the probe's WrapFunc: it installs a counting shim around every
// operator Build constructs.
func (p *lifecycleProbe) wrap(_ *Ctx, op BatchOperator, n *plan.Node) BatchOperator {
	c := &countingBatchOp{inner: op, node: n, owner: p}
	p.ops = append(p.ops, c)
	return c
}

func (c *countingBatchOp) Open(ctx *Ctx) error {
	c.opens++
	c.owner.openSeq++
	if c.owner.failOpen != 0 && c.owner.openSeq == c.owner.failOpen {
		return errInjectedOpen
	}
	return c.inner.Open(ctx)
}

func (c *countingBatchOp) NextBatch(ctx *Ctx) (*Batch, error) { return c.inner.NextBatch(ctx) }

func (c *countingBatchOp) Close() {
	c.closes++
	c.inner.Close()
}

// lifecyclePlans yields a handful of plan shapes covering every batch
// operator: hash and nested-loop joins plus the mixed assignment.
func lifecyclePlans(t *testing.T, fn func(q *query.Query, p *plan.Node, variant string)) {
	db := testutil.TinyDB()
	equivCorpus(t, db, 48, 2, fn)
}

// TestDrainBatchClosesChildOnError is the regression test for the
// drainBatch leak: an error during materialization (here a MaxMatRows trip)
// must close the drained child before drainBatch returns, not leave it for
// the caller's eventual teardown.
func TestDrainBatchClosesChildOnError(t *testing.T) {
	db := testutil.TinyDB()
	tripped := 0
	lifecyclePlans(t, func(q *query.Query, p *plan.Node, variant string) {
		ctx := &Ctx{DB: db, Q: q, Controller: NopController{}, MaxMatRows: 1}
		inner, err := Build(ctx, p)
		if err != nil {
			t.Fatalf("%s/%s: build: %v", q.SQL(), variant, err)
		}
		closes := 0
		counted := &closeCountingBatchOp{inner: inner, closes: &closes}
		_, err = drainBatch(ctx, p, counted)
		if closes == 0 {
			t.Fatalf("%s/%s: drainBatch returned (err=%v) without closing its child", q.SQL(), variant, err)
		}
		var re *ResourceError
		if errors.As(err, &re) {
			tripped++
		}
		counted.Close() // callers may close again; must be harmless
	})
	if tripped == 0 {
		t.Fatal("no corpus plan tripped the materialization limit; error path untested")
	}
}

type closeCountingBatchOp struct {
	inner  BatchOperator
	closes *int
}

func (c *closeCountingBatchOp) Open(ctx *Ctx) error { return c.inner.Open(ctx) }
func (c *closeCountingBatchOp) NextBatch(ctx *Ctx) (*Batch, error) {
	return c.inner.NextBatch(ctx)
}
func (c *closeCountingBatchOp) Close() { *c.closes++; c.inner.Close() }

// TestBatchOpenFailureLifecycle errors at every possible Open step of every
// corpus plan, then Closes the root: every operator that was opened must be
// closed, with no double-close panics.
func TestBatchOpenFailureLifecycle(t *testing.T) {
	db := testutil.TinyDB()
	probe := &lifecycleProbe{}
	lifecyclePlans(t, func(q *query.Query, p *plan.Node, variant string) {
		// first pass: count Open attempts on a clean run
		probe.ops, probe.openSeq, probe.failOpen = nil, 0, 0
		ctx := &Ctx{DB: db, Q: q, Controller: NopController{}, Wrap: probe.wrap}
		op, err := Build(ctx, p.Clone())
		if err != nil {
			t.Fatalf("%s/%s: build: %v", q.SQL(), variant, err)
		}
		if err := op.Open(ctx); err != nil {
			t.Fatalf("%s/%s: clean open: %v", q.SQL(), variant, err)
		}
		op.Close()
		attempts := probe.openSeq

		for k := 1; k <= attempts; k++ {
			probe.ops, probe.openSeq, probe.failOpen = nil, 0, k
			ctx := &Ctx{DB: db, Q: q, Controller: NopController{}, Wrap: probe.wrap}
			op, err := Build(ctx, p.Clone())
			if err != nil {
				t.Fatalf("%s/%s k=%d: build: %v", q.SQL(), variant, k, err)
			}
			if err := op.Open(ctx); !errors.Is(err, errInjectedOpen) {
				t.Fatalf("%s/%s k=%d: expected injected Open failure, got %v", q.SQL(), variant, k, err)
			}
			op.Close()
			for _, c := range probe.ops {
				if c.opens > 0 && c.closes == 0 {
					t.Fatalf("%s/%s k=%d: %v over %#x opened %d times but never closed",
						q.SQL(), variant, k, c.node.Op, uint32(c.node.Tables), c.opens)
				}
			}
			op.Close() // idempotency: a second Close must be harmless
		}
	})
}

// TestBatchBudgetFailureLifecycle sweeps small work budgets so errors land
// mid-drain and mid-probe rather than at Open boundaries, asserting the same
// opened-implies-closed invariant. The corpus plans never probe a unique
// build, so a star over uniqueBuildDB, whose joins all probe primary keys,
// is swept too, at budgets spread over its whole run: their errors land
// inside the unique-build probe's per-batch flushes. So is a pass-through
// chain over passDB, whose joins return views and partial copies.
func TestBatchBudgetFailureLifecycle(t *testing.T) {
	probe := &lifecycleProbe{}
	sweep := func(db *storage.Database, q *query.Query, p *plan.Node, variant string, budgets []int64) {
		for _, budget := range budgets {
			probe.ops, probe.openSeq, probe.failOpen = nil, 0, 0
			ctx := &Ctx{DB: db, Q: q, Controller: NopController{}, Budget: budget, Wrap: probe.wrap}
			op, err := Build(ctx, p.Clone())
			if err != nil {
				t.Fatalf("%s/%s: build: %v", q.SQL(), variant, err)
			}
			if err := op.Open(ctx); err == nil {
				for {
					b, err := op.NextBatch(ctx)
					if err != nil || b == nil {
						break
					}
				}
			}
			op.Close()
			for _, c := range probe.ops {
				if c.opens > 0 && c.closes == 0 {
					t.Fatalf("%s/%s budget %d: %v over %#x opened but never closed",
						q.SQL(), variant, budget, c.node.Op, uint32(c.node.Tables))
				}
			}
		}
	}
	tiny := testutil.TinyDB()
	lifecyclePlans(t, func(q *query.Query, p *plan.Node, variant string) {
		sweep(tiny, q, p, variant, []int64{1, 7, 63, 500, 2000})
	})

	db, tab := uniqueBuildDB(false)
	f := tab["f"]
	q := query.New([]*catalog.Table{f, tab["d"], tab["u"], tab["v"]}, []query.Join{
		{Left: f.Column("fk"), Right: tab["d"].Column("id")},
		{Left: f.Column("g"), Right: tab["u"].Column("id")},
		{Left: f.Column("h"), Right: tab["v"].Column("id")}}, nil)
	root := hashOnto(q, plan.NewLeaf(plan.SeqScan, f, q.TableIndex(f), nil), tab["d"], tab["u"], tab["v"])
	ctx := &Ctx{DB: db, Q: q}
	if _, err := Run(ctx, root.Clone()); err != nil {
		t.Fatal(err)
	}
	var budgets []int64
	for k := int64(1); k < 64; k++ {
		budgets = append(budgets, ctx.Work()*k/64)
	}
	sweep(db, q, root, "unique-build", budgets)

	// a pass-through chain: views, partial copies and a count-only root
	pdb, ptab := passDB()
	pq := passQuery(ptab, "a", "c", "b", "h")
	proot := fanOut(pq, ptab, "a", "c", "b", "h")
	pctx := &Ctx{DB: pdb, Q: pq}
	if _, err := Run(pctx, proot.Clone()); err != nil {
		t.Fatal(err)
	}
	budgets = budgets[:0]
	for k := int64(1); k < 64; k++ {
		budgets = append(budgets, pctx.Work()*k/64)
	}
	sweep(pdb, pq, proot, "pass-through", budgets)
}

// TestBatchHashJoinReleasesOnOpenFailure checks that a hash join whose Open
// fails after the build completed (checkpoint returns an error) does not
// retain the build arena or table.
func TestBatchHashJoinReleasesOnOpenFailure(t *testing.T) {
	db := testutil.TinyDB()
	tested := 0
	lifecyclePlans(t, func(q *query.Query, p *plan.Node, variant string) {
		if p.Op != plan.HashJoin {
			return
		}
		rc := &ckptRecorder{failAt: p.Right.Tables}
		ctx := &Ctx{DB: db, Q: q, Controller: rc}
		op, err := Build(ctx, p)
		if err != nil {
			t.Fatalf("%s/%s: build: %v", q.SQL(), variant, err)
		}
		h, ok := op.(*batchHashJoin)
		if !ok {
			t.Fatalf("%s/%s: expected *batchHashJoin, got %T", q.SQL(), variant, op)
		}
		err = h.Open(ctx)
		var sig *ReoptSignal
		if !errors.As(err, &sig) {
			t.Fatalf("%s/%s: expected ReoptSignal from checkpoint, got %v", q.SQL(), variant, err)
		}
		if h.rows.Data != nil || h.table.slots != nil || h.table.order != nil {
			t.Fatalf("%s/%s: failed Open retained rows=%v table=%v", q.SQL(), variant, h.rows.Data != nil, h.table.slots != nil)
		}
		h.Close()
		h.Close() // double Close after failed Open must not panic
		tested++
	})
	if tested == 0 {
		t.Fatal("corpus produced no hash-join roots")
	}
}

// TestVecBuildSizeGuard pins the int32 overflow guard: builds up to
// MaxInt32 rows pass, anything larger fails with a typed *ResourceError
// before the table would wrap its int32 row ids.
func TestVecBuildSizeGuard(t *testing.T) {
	if err := checkVecBuildSize(0); err != nil {
		t.Fatalf("0 rows: %v", err)
	}
	if err := checkVecBuildSize(1 << 20); err != nil {
		t.Fatalf("2^20 rows: %v", err)
	}
	if err := checkVecBuildSize(math.MaxInt32); err != nil {
		t.Fatalf("MaxInt32 rows must pass: %v", err)
	}
	err := checkVecBuildSize(math.MaxInt32 + 1)
	var re *ResourceError
	if !errors.As(err, &re) {
		t.Fatalf("MaxInt32+1 rows: expected *ResourceError, got %v", err)
	}
	if re.Resource != "hash-build-rows" || re.Limit != math.MaxInt32 || re.Used != math.MaxInt32+1 {
		t.Fatalf("unexpected payload: %+v", re)
	}
}
