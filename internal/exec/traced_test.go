package exec

import (
	"testing"
	"time"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// TestTraceRecordsEveryOperator: with a trace installed, every plan node
// must yield one OpStats record whose actual cardinality matches the
// node's stamped true cardinality.
func TestTraceRecordsEveryOperator(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 41)
	q := g.Query(3)
	p := CanonicalPlan(q, q.AllTablesMask())
	tr := &obs.ExecTrace{}
	ctx := newCtx(db, q)
	ctx.Trace = tr
	count, err := Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Ops) != p.NumNodes() {
		t.Fatalf("trace has %d ops, plan has %d nodes", len(tr.Ops), p.NumNodes())
	}
	p.Walk(func(n *plan.Node) {
		s := tr.ByMask(n.Tables)
		if s == nil {
			t.Fatalf("no stats for node %v covering %b", n.Op, uint32(n.Tables))
		}
		if s.Op != n.Op.String() {
			t.Fatalf("op mismatch: %s vs %v", s.Op, n.Op)
		}
		if s.ActualRows != n.TrueCard {
			t.Fatalf("%v: actual %v != true card %v", n.Op, s.ActualRows, n.TrueCard)
		}
		if s.Rows != int64(n.TrueCard) {
			t.Fatalf("%v: rows %d != true card %v", n.Op, s.Rows, n.TrueCard)
		}
		if s.Work <= 0 {
			t.Fatalf("%v: ran with work %d, want > 0", n.Op, s.Work)
		}
	})
	root := tr.ByMask(q.AllTablesMask())
	if int(root.ActualRows) != count {
		t.Fatalf("root actual %v != count %d", root.ActualRows, count)
	}
	// a parent's calls contain its children's, so its work does too, and
	// the root's is the whole run's
	if root.Work != ctx.Work() {
		t.Fatalf("root work %d != run work %d", root.Work, ctx.Work())
	}
	p.Walk(func(n *plan.Node) {
		if n.IsLeaf() {
			return
		}
		s := tr.ByMask(n.Tables)
		var kids int64
		for _, c := range []*plan.Node{n.Left, n.Right} {
			if cs := tr.ByMask(c.Tables); cs != nil {
				kids += cs.Work
			}
		}
		if s.Work < kids {
			t.Fatalf("%v: work %d below its children's %d", n.Op, s.Work, kids)
		}
	})
}

// pacedOp emits n zero-width batches, charging work units and sleeping
// pause inside each NextBatch call.
type pacedOp struct {
	n, work int
	pause   time.Duration
}

func (p *pacedOp) Open(*Ctx) error { return nil }
func (p *pacedOp) Close()          {}
func (p *pacedOp) NextBatch(ctx *Ctx) (*Batch, error) {
	if p.n == 0 {
		return nil, nil
	}
	p.n--
	time.Sleep(p.pause)
	if err := ctx.charge(int64(p.work)); err != nil {
		return nil, err
	}
	return &Batch{n: 1}, nil
}

// TestTraceCountsOwnCallsOnly: an operator's Wall and Work accrue inside its
// own Open and NextBatch calls. A parent that charges work and sleeps
// between pulls must show in neither: the child reports its own 3 × 7
// units and about its own 3 × 1 ms, far below one of the parent's 100 ms
// gaps.
func TestTraceCountsOwnCallsOnly(t *testing.T) {
	db := testutil.TinyDB()
	q := workload.NewGenerator(db, 41).Query(1)
	tr := &obs.ExecTrace{}
	ctx := newCtx(db, q)
	const gap = 100 * time.Millisecond
	child := &tracedOp{inner: &pacedOp{n: 3, work: 7, pause: time.Millisecond}, node: CanonicalPlan(q, q.AllTablesMask()), tr: tr}
	if err := child.Open(ctx); err != nil {
		t.Fatal(err)
	}
	for {
		b, err := child.NextBatch(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if b == nil {
			break
		}
		if err := ctx.charge(1000); err != nil {
			t.Fatal(err)
		}
		time.Sleep(gap)
	}
	child.Close()
	if len(tr.Ops) != 1 {
		t.Fatalf("trace has %d ops, want 1", len(tr.Ops))
	}
	s := tr.Ops[0]
	if s.Work != 21 || ctx.Work() != 3021 {
		t.Fatalf("child work %d (run %d), want 21 of 3021", s.Work, ctx.Work())
	}
	if s.Wall < 3*time.Millisecond || s.Wall >= gap {
		t.Fatalf("child wall %v, want its own ~3ms, below the parent's %v gap", s.Wall, gap)
	}
	if s.ActualRows != 3 || s.Batches != 3 {
		t.Fatalf("child rows %v in %d batches, want 3 in 3", s.ActualRows, s.Batches)
	}
}

// TestTraceCountOnlyFanOutBatches: a count-only fan-out root carries up to
// zeroWidthRows rows per batch, so a tracer, which reads the clock twice
// per batch, sees about rows / zeroWidthRows batches, not rows / BatchSize.
// s ⋈ t on 16 shared keys makes 4096 × 256 rows from four probe batches.
func TestTraceCountOnlyFanOutBatches(t *testing.T) {
	sch := catalog.NewSchema()
	st, tt := sch.AddTable("s", catalog.Attr("k")), sch.AddTable("t", catalog.Attr("k"))
	db := storage.NewDatabase(sch)
	const n, keys = 4096, 16
	for _, meta := range []*catalog.Table{st, tt} {
		tab := storage.NewTable(meta, n)
		for r := range n {
			tab.Cols[0][r] = int64(r % keys)
		}
		tab.FinishLoad()
		db.Tables[meta.ID] = tab
	}
	q := query.New([]*catalog.Table{st, tt}, []query.Join{{Left: st.Column("k"), Right: tt.Column("k")}}, nil)
	probe := plan.NewLeaf(plan.SeqScan, st, 0, nil)
	p := plan.NewJoin(plan.HashJoin, probe, plan.NewLeaf(plan.SeqScan, tt, 1, nil), q.Joins)
	tr := &obs.ExecTrace{}
	ctx := newCtx(db, q)
	ctx.Trace = tr
	count, err := Run(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	root, scan := tr.ByMask(p.Tables), tr.ByMask(probe.Tables)
	if count != n*n/keys || root.Rows != int64(count) {
		t.Fatalf("count %d, root rows %d; want %d", count, root.Rows, n*n/keys)
	}
	if limit := (root.Rows+zeroWidthRows-1)/zeroWidthRows + scan.Batches; root.Batches > limit {
		t.Fatalf("count-only fan-out root returned %d batches for %d rows from %d probe batches, want at most %d",
			root.Batches, root.Rows, scan.Batches, limit)
	}
}

// TestTraceMarksAbortedOperators: operators unwound by the work budget must
// report ActualRows = -1 (cardinality unknown), not a misleading partial
// count.
func TestTraceMarksAbortedOperators(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 42)
	q := g.Query(3)
	p := CanonicalPlan(q, q.AllTablesMask())
	tr := &obs.ExecTrace{}
	ctx := newCtx(db, q)
	ctx.Budget = 10
	ctx.Trace = tr
	if _, err := Run(ctx, p); err == nil {
		t.Fatal("expected budget error")
	}
	if len(tr.Ops) == 0 {
		t.Fatal("aborted execution left no trace")
	}
	aborted := 0
	for _, s := range tr.Ops {
		if s.ActualRows < 0 {
			aborted++
		}
	}
	if aborted == 0 {
		t.Fatalf("no operator marked aborted: %+v", tr.Ops)
	}
}

// TestTraceIdenticalResults: tracing must not change query results or the
// work accounting.
func TestTraceIdenticalResults(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 43)
	for i := 0; i < 5; i++ {
		q := g.Query(3)
		plain := newCtx(db, q)
		want, err := Run(plain, CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		traced := newCtx(db, q)
		traced.Trace = &obs.ExecTrace{}
		got, err := Run(traced, CanonicalPlan(q, q.AllTablesMask()))
		if err != nil {
			t.Fatal(err)
		}
		if got != want || traced.Work() != plain.Work() {
			t.Fatalf("traced run diverged: count %d vs %d, work %d vs %d",
				got, want, traced.Work(), plain.Work())
		}
	}
}

// benchQuery builds a fixed query/plan pair for the overhead benchmarks.
func benchQuery(b *testing.B) (*query.Query, *plan.Node, *Ctx) {
	b.Helper()
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 44)
	q := g.Query(3)
	return q, CanonicalPlan(q, q.AllTablesMask()), newCtx(db, q)
}

// BenchmarkExecTraceOff is the baseline: tracing disabled, so the trace
// shim is never installed. Compare with BenchmarkExecTraceOn to price the
// enabled trace layer; the disabled layer is structurally free (no wrapper,
// and the nil-path obs calls are allocation-free — see
// obs.TestDisabledRecordingAllocFree).
func BenchmarkExecTraceOff(b *testing.B) {
	q, p, ctx := benchQuery(b)
	_ = q
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExecTraceOn executes the same plan with per-operator stats
// collection installed.
func BenchmarkExecTraceOn(b *testing.B) {
	q, p, ctx := benchQuery(b)
	_ = q
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ctx.Trace = &obs.ExecTrace{}
		if _, err := Run(ctx, p); err != nil {
			b.Fatal(err)
		}
	}
}
