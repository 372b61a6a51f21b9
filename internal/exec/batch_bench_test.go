package exec

import (
	"fmt"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// benchDB builds a synthetic two-table join workload sized for the probe
// hot path: a build side of buildRows distinct keys and a probe side of
// probeRows rows hitting those keys round-robin, plus a filter column so
// the scan-filter benchmarks have a predicate to vectorize.
func benchDB(buildRows, probeRows int) (*storage.Database, *query.Query) {
	s := catalog.NewSchema()
	b := s.AddTable("build", catalog.PK("id"), catalog.Attr("pad"))
	p := s.AddTable("probe", catalog.FK("bid", b.Column("id")), catalog.Attr("f"))

	db := storage.NewDatabase(s)
	bt := storage.NewTable(b, buildRows)
	for i := 0; i < buildRows; i++ {
		bt.ColByName("id")[i] = int64(i)
		bt.ColByName("pad")[i] = int64(i * 3)
	}
	db.Tables[b.ID] = bt
	pt := storage.NewTable(p, probeRows)
	for i := 0; i < probeRows; i++ {
		pt.ColByName("bid")[i] = int64(i % buildRows)
		pt.ColByName("f")[i] = int64(i % 100)
	}
	db.Tables[p.ID] = pt
	bt.FinishLoad()
	pt.FinishLoad()

	q := query.New([]*catalog.Table{b, p},
		[]query.Join{{Left: p.Column("bid"), Right: b.Column("id")}}, nil)
	return db, q
}

// joinPlan builds probe ⋈ build with the probe side outer, so the hash
// join's Next loop is the measured hot path.
func joinPlan(q *query.Query) *plan.Node {
	probe := plan.NewLeaf(plan.SeqScan, q.Tables[1], 1, nil)
	build := plan.NewLeaf(plan.SeqScan, q.Tables[0], 0, nil)
	return plan.NewJoin(plan.HashJoin, probe, build, q.Joins)
}

// chainDB builds a five-table foreign-key chain t0 <- t1 <- ... <- t4 over
// tables of 3-5 columns: t0 has dim rows, each later table fans out 4x (up
// to 256*dim rows in t4) with every row referencing a row of the table
// before it, so the full join has as many rows as t4. Only the id and fk
// columns ever join; the pad columns are what an unprojected tuple would
// have dragged through every join.
func chainDB(dim int) (*storage.Database, *query.Query) {
	s := catalog.NewSchema()
	tabs := make([]*catalog.Table, 5)
	for i := range tabs {
		specs := []catalog.ColumnSpec{catalog.PK("id")}
		if i > 0 {
			specs = append(specs, catalog.FK("fk", tabs[i-1].Column("id")))
		}
		for len(specs) < 3+i%3 {
			specs = append(specs, catalog.Attr(fmt.Sprintf("pad%d", len(specs))))
		}
		tabs[i] = s.AddTable(fmt.Sprintf("t%d", i), specs...)
	}
	db := storage.NewDatabase(s)
	rows := dim
	var joins []query.Join
	for i, t := range tabs {
		st := storage.NewTable(t, rows)
		for c := range st.Cols {
			for r := 0; r < rows; r++ {
				st.Cols[c][r] = int64(r * (c + 1))
			}
		}
		if i > 0 {
			for r := 0; r < rows; r++ {
				st.ColByName("fk")[r] = int64(r / 4)
			}
			joins = append(joins, query.Join{Left: t.Column("fk"), Right: tabs[i-1].Column("id")})
		}
		db.Tables[t.ID] = st
		st.FinishLoad()
		rows *= 4
	}
	return db, query.New(tabs, joins, nil)
}

// chainPlan is the left-deep hash-join chain with the largest table as the
// streaming probe side: t4 probes t3's table, the result probes t2's, and so
// on, so every output row is stitched four times on its way up.
func chainPlan(q *query.Query) *plan.Node {
	leaf := func(i int) *plan.Node { return plan.NewLeaf(plan.SeqScan, q.Tables[i], i, nil) }
	cur := leaf(4)
	for i := 3; i >= 0; i-- {
		cur = plan.NewJoin(plan.HashJoin, cur, leaf(i), q.JoinsBetween(cur.Tables, query.NewBitSet().Set(i)))
	}
	return cur
}

func BenchmarkHashJoinProbe(b *testing.B) {
	db, q := benchDB(4096, 1<<16)
	chDB, chQ := chainDB(256)
	for _, bc := range []struct {
		name string
		db   *storage.Database
		q    *query.Query
		plan func(*query.Query) *plan.Node
	}{{"", db, q, joinPlan}, {"chain5/", chDB, chQ, chainPlan}} {
		b.Run(bc.name+"batch", func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				n, err := Run(&Ctx{DB: bc.db, Q: bc.q}, bc.plan(bc.q))
				if err != nil {
					b.Fatal(err)
				}
				rows += n
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(rows), "ns/output-row")
		})
	}
}

// TestZeroWidthProbeAllocatesNothing: the root of a COUNT(*) plan has no live
// column, so a warm batch probe loop only counts — it allocates nothing and
// its output batch never acquires an arena.
func TestZeroWidthProbeAllocatesNothing(t *testing.T) {
	db, q := benchDB(4096, 1<<16)
	ctx := &Ctx{DB: db, Q: q}
	op, err := newBatchHashJoin(ctx, joinPlan(q))
	if err != nil {
		t.Fatal(err)
	}
	defer op.Close()
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	next := func() {
		b, err := op.NextBatch(ctx)
		if err != nil || b == nil || b.Width() != 0 || b.Len() != BatchSize {
			t.Fatalf("probe batch = %+v, err %v; want a full zero-width batch", b, err)
		}
	}
	next() // warm: the probe-side scan sizes its arena on first use
	if allocs := testing.AllocsPerRun(40, next); allocs != 0 {
		t.Fatalf("warm zero-width probe loop allocates %v blocks per batch", allocs)
	}
	if cap(op.out.data) != 0 {
		t.Fatalf("zero-width output arena grew to %d values", cap(op.out.data))
	}
}

// scanPlan is a single-table filtered scan: f < 50 keeps half the rows.
func scanPlan(q *query.Query) (*plan.Node, *query.Query) {
	probe := q.Tables[1]
	q2 := query.New([]*catalog.Table{probe}, nil,
		[]query.Predicate{{Col: probe.Column("f"), Op: query.OpLT, Operand: 50}})
	return plan.NewLeaf(plan.SeqScan, probe, 0, q2.Preds), q2
}

func BenchmarkScanFilter(b *testing.B) {
	db, q := benchDB(64, 1<<18)
	p, q2 := scanPlan(q)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Run(&Ctx{DB: db, Q: q2}, p); err != nil {
			b.Fatal(err)
		}
	}
}

// TestBatchProbeAllocsPerTuple asserts the headline allocation claim: the
// batch hash join allocates O(log n) blocks per execution (arena growth,
// hash table, batches) — amortized ~0 per tuple, where a row-at-a-time
// build would allocate at least one copy per build row. The thresholds are
// generous so the test pins the complexity class, not exact counts.
func TestBatchProbeAllocsPerTuple(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counting is slow")
	}
	const buildRows = 4096
	db, q := benchDB(buildRows, 1<<15)
	batch := testing.AllocsPerRun(5, func() {
		if _, err := Run(&Ctx{DB: db, Q: q}, joinPlan(q)); err != nil {
			t.Fatal(err)
		}
	})
	if batch >= buildRows/10 {
		t.Fatalf("batch path allocates too much: %v allocs for %d build rows", batch, buildRows)
	}
	if perTuple := batch / float64(1<<15); perTuple >= 0.01 {
		t.Fatalf("batch path allocates %v per probe tuple, want ~0", perTuple)
	}
}

// TestBuildScratchRecycled asserts the build scratch (chain tails, and on
// the parallel path the row hashes) recycles through the Ctx free-list: a
// warm context's serial build allocates only the vecTable itself — struct
// plus its three arrays — while a fresh context pays for the tails scratch
// on top of that.
func TestBuildScratchRecycled(t *testing.T) {
	rows := hashBuildRows(4096, 256)
	warmCtx := &Ctx{}
	buildVecTable(warmCtx, rows, buildConds, 1)
	warm := testing.AllocsPerRun(10, func() {
		buildVecTable(warmCtx, rows, buildConds, 1)
	})
	fresh := testing.AllocsPerRun(10, func() {
		buildVecTable(&Ctx{}, rows, buildConds, 1)
	})
	if warm > 4 {
		t.Fatalf("warm build allocates %v blocks, want ≤ 4 (scratch not recycled)", warm)
	}
	if warm >= fresh {
		t.Fatalf("warm build allocates %v blocks vs fresh %v, want fewer", warm, fresh)
	}
}

// TestBuildScratchParallelReturned asserts a parallel build hands both
// scratch buffers back to its Ctx, sized for reuse by the next build in the
// same execution.
func TestBuildScratchParallelReturned(t *testing.T) {
	old := morselSize
	morselSize = 64
	t.Cleanup(func() { morselSize = old })
	t.Cleanup(SetExchangeWorkerCap(8))
	ctx := &Ctx{}
	rows := hashBuildRows(5000, 256)
	buildVecTable(ctx, rows, buildConds, 4)
	if cap(ctx.buildHashes) < len(rows) {
		t.Fatalf("hash scratch not returned: cap %d, want ≥ %d", cap(ctx.buildHashes), len(rows))
	}
	if cap(ctx.buildTails) == 0 {
		t.Fatal("tails scratch not returned")
	}
}
