package exec

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
)

// buildConds is the single-key join condition every build test hashes on.
var buildConds = []condOffsets{{0, 0}}

// hashBuildRows fabricates n single-column build rows with keys drawn from
// [0, keySpace) by a fixed-seed LCG — deterministic across runs and hosts.
func hashBuildRows(n, keySpace int) plan.Rows {
	rows := plan.Rows{Width: 1, N: n, Data: make([]int64, n)}
	state := uint64(0x9e3779b97f4a7c15)
	for i := range rows.Data {
		state = state*6364136223846793005 + 1442695040888963407
		rows.Data[i] = int64(state>>33) % int64(keySpace)
	}
	return rows
}

// groupOf returns the build rows a lookup of h lists, in list order.
func groupOf(tbl *hashTable, h uint64) []int32 {
	s := tbl.lookup(h)
	return tbl.order[s.lo:s.hi]
}

// TestBuildEquivalenceChainOrder checks the property output order and
// per-candidate charges rest on: for every distinct hash, the group reached
// through lookup lists exactly the rows carrying that hash, in build row
// order, and every build row is listed exactly once.
func TestBuildEquivalenceChainOrder(t *testing.T) {
	rows := hashBuildRows(5000, 32)
	want := map[uint64][]int32{}
	for i := 0; i < rows.N; i++ {
		h := hashRowConds(rows.Row(i), buildConds, false)
		want[h] = append(want[h], int32(i))
	}
	var tbl hashTable
	tbl.build(rows, buildConds)
	listed := 0
	for h, exp := range want {
		if got := groupOf(&tbl, h); !slices.Equal(got, exp) {
			t.Fatalf("hash %x: group %v, want %v", h, got, exp)
		}
		listed += len(exp)
	}
	seen := make([]bool, rows.N)
	for _, r := range tbl.order {
		if seen[r] {
			t.Fatalf("row %d listed twice", r)
		}
		seen[r] = true
	}
	if listed != rows.N || len(tbl.order) != rows.N {
		t.Fatalf("groups list %d rows, order %d, want %d", listed, len(tbl.order), rows.N)
	}
	if s := tbl.lookup(^uint64(0)); s.lo != s.hi {
		t.Fatalf("lookup of an absent hash = %v, want an empty range", s)
	}
}

// skewedRows fabricates n rows with distinct hashes that all home in the
// first span slots of the table build sizes for them, so their probe walks
// run long and cross the span's end.
func skewedRows(t *testing.T, n int, span uint64) plan.Rows {
	t.Helper()
	var sized hashTable
	sized.build(plan.Rows{Width: 1, N: n, Data: make([]int64, n)}, buildConds)
	if sized.mask+1 <= span {
		t.Fatalf("skew fixture needs a table wider than %d slots, got %d", span, sized.mask+1)
	}
	rows := plan.Rows{Width: 1}
	seen := map[uint64]bool{}
	for v := int64(0); rows.N < n; v++ {
		h := hashRowConds([]int64{v}, buildConds, false)
		if h&sized.mask >= span || seen[h] {
			continue
		}
		seen[h] = true
		rows.Data = append(rows.Data, v)
		rows.N++
	}
	return rows
}

// TestBuildEquivalenceOverflowFallback drives more than 512 distinct hashes
// into one 512-slot range of the table, so lookups walk past the range, and
// checks that every row is still placed and found again, alone in its group.
func TestBuildEquivalenceOverflowFallback(t *testing.T) {
	const span = 512
	rows := skewedRows(t, span+88, span)
	var tbl hashTable
	tbl.build(rows, buildConds)
	for i := 0; i < rows.N; i++ {
		h := hashRowConds(rows.Row(i), buildConds, false)
		if got := groupOf(&tbl, h); len(got) != 1 || got[0] != int32(i) {
			t.Fatalf("lookup(row %d) = %v, want [%d]", i, got, i)
		}
	}
}

// TestHashSingleKeyInjective holds up the hash join's skip of condsEqual on
// single-condition keys: one-value FNV-1a, (basis ^ v) * prime mod 2^64, is
// inverted by multiplying with the prime's inverse and xoring the basis, so
// distinct keys never share a hash.
func TestHashSingleKeyInjective(t *testing.T) {
	inv := fnvPrime // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		inv *= 2 - fnvPrime*inv
	}
	if fnvPrime*inv != 1 {
		t.Fatalf("no inverse: %d * %d != 1 mod 2^64", fnvPrime, inv)
	}
	vals := []int64{math.MinInt64, -1, 0, math.MaxInt64}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		vals = append(vals, int64(rng.Uint64()))
	}
	cond := []condOffsets{{0, 1}}
	for _, v := range vals {
		h := hashRowConds([]int64{v, 0}, cond, true)
		if back := int64((h * inv) ^ fnvOffsetBasis); back != v {
			t.Fatalf("hash of %d inverts to %d", v, back)
		}
		if r := hashRowConds([]int64{0, v}, cond, false); r != h {
			t.Fatalf("key %d hashes to %x on the left, %x on the right", v, h, r)
		}
	}
}

// collisionDB builds l(x, y, z), r(x, y) and t(z): r holds the keys (a1, b1)
// and (a2, b2), l holds the same two keys with z = 1 and 2, and t holds
// z = 1 and 2. With collide set, b2 is chosen so that the two distinct keys
// share one full 64-bit two-condition hash; without it the keys hash apart.
func collisionDB(collide bool) (*storage.Database, *catalog.Table, *catalog.Table, *catalog.Table) {
	const a1, b1, a2 = 1, 2, 3
	basis, prime := fnvOffsetBasis, fnvPrime // variables: the products wrap mod 2^64
	b2 := int64(((basis ^ a1) * prime) ^ b1 ^ ((basis ^ a2) * prime))
	if !collide {
		b2 ^= 1
	}
	s := catalog.NewSchema()
	l := s.AddTable("l", catalog.Attr("x"), catalog.Attr("y"), catalog.Attr("z"))
	r := s.AddTable("r", catalog.Attr("x"), catalog.Attr("y"))
	tt := s.AddTable("t", catalog.Attr("z"))
	db := storage.NewDatabase(s)
	fill := func(meta *catalog.Table, cols ...[]int64) {
		st := storage.NewTable(meta, len(cols[0]))
		for i, c := range cols {
			copy(st.Cols[i], c)
		}
		st.FinishLoad()
		db.Tables[meta.ID] = st
	}
	fill(l, []int64{a1, a2}, []int64{b1, b2}, []int64{1, 2})
	fill(r, []int64{a1, a2}, []int64{b1, b2})
	fill(tt, []int64{1, 2})
	return db, l, r, tt
}

// pairRows records the rows buffered at one subset.
type pairRows struct {
	NopController // no pipelined checks
	mask          query.BitSet
	rows          plan.Rows
}

func (p *pairRows) OnMaterialized(n *plan.Node, rows plan.Rows) error {
	if n.Tables == p.mask {
		p.rows = rows
	}
	return nil
}

// TestHashJoinTwoConditionCollision forces two distinct two-condition keys
// into one hash group. The probe must still verify every condition: only
// true matches are emitted — at a zero-width COUNT(*) root and below a join
// whose output carries a column — the collision candidate is charged like
// any other, and every join algorithm returns the same count.
func TestHashJoinTwoConditionCollision(t *testing.T) {
	db, l, r, tt := collisionDB(true)
	lr := []query.Join{{Left: l.Column("x"), Right: r.Column("x")}, {Left: l.Column("y"), Right: r.Column("y")}}
	rowsOf := func(tab *catalog.Table) plan.Rows {
		st := db.Table(tab)
		out := plan.Rows{Width: 2, N: st.NumRows()}
		for i := 0; i < out.N; i++ {
			out.Data = append(out.Data, st.Cols[0][i], st.Cols[1][i])
		}
		return out
	}
	conds := []condOffsets{{0, 0}, {1, 1}}
	build := rowsOf(r)
	var tbl hashTable
	tbl.build(build, conds)
	if g := groupOf(&tbl, hashRowConds(build.Row(0), conds, false)); len(g) != 2 {
		t.Fatalf("fixture keys do not collide: group %v", g)
	}

	// two tables: the join is the zero-width root
	q := query.New([]*catalog.Table{l, r}, lr, nil)
	work := func(db *storage.Database, op plan.PhysOp) (int, int64) {
		t.Helper()
		p := CanonicalPlan(q, q.AllTablesMask())
		setJoinOps(p, op)
		ctx := &Ctx{DB: db, Q: q}
		n, err := Run(ctx, p)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		return n, ctx.Work()
	}
	if want := testutil.BruteCount(db, q); want != 2 {
		t.Fatalf("brute force = %d, want 2", want)
	}
	for _, op := range []plan.PhysOp{plan.HashJoin, plan.NestLoopJoin} {
		if n, _ := work(db, op); n != 2 {
			t.Fatalf("%v: count %d, want 2", op, n)
		}
	}
	// each of the two probe rows visits both rows of the colliding group,
	// against one candidate each when the keys hash apart
	control, _, _, _ := collisionDB(false)
	_, hashed := work(db, plan.HashJoin)
	_, apart := work(control, plan.HashJoin)
	if hashed-apart != 2 {
		t.Fatalf("collision candidates charged %d extra work units, want 2", hashed-apart)
	}

	// three tables: the l-r join carries l.z up to t, so emitted rows are
	// written, and are checkpointed as t's build side
	q3 := query.New([]*catalog.Table{l, r, tt}, append(slices.Clone(lr), query.Join{Left: l.Column("z"), Right: tt.Column("z")}), nil)
	lIdx, rIdx, tIdx := q3.TableIndex(l), q3.TableIndex(r), q3.TableIndex(tt)
	leaf := func(tab *catalog.Table, i int) *plan.Node { return plan.NewLeaf(plan.SeqScan, tab, i, nil) }
	pair := query.NewBitSet().Set(lIdx).Set(rIdx)
	for _, op := range []plan.PhysOp{plan.HashJoin, plan.NestLoopJoin} {
		inner := plan.NewJoin(op, leaf(l, lIdx), leaf(r, rIdx), lr)
		root := plan.NewJoin(plan.HashJoin, leaf(tt, tIdx), inner, q3.JoinsBetween(query.NewBitSet().Set(tIdx), pair))
		rec := &pairRows{mask: pair}
		n, err := Run(&Ctx{DB: db, Q: q3, Controller: rec}, root)
		if err != nil {
			t.Fatalf("%v: %v", op, err)
		}
		got := slices.Clone(rec.rows.Data)
		slices.Sort(got)
		if n != 2 || rec.rows.Width != 1 || !slices.Equal(got, []int64{1, 2}) {
			t.Fatalf("%v: count %d, buffered l-r rows %v (width %d), want 2 and z = [1 2]", op, n, got, rec.rows.Width)
		}
	}
}

// missDB builds l(k) with n keys and r(k) with 4 keys, none equal to any of
// l's, joined on k.
func missDB(n int) (*storage.Database, *query.Query) {
	s := catalog.NewSchema()
	l := s.AddTable("l", catalog.Attr("k"))
	r := s.AddTable("r", catalog.Attr("k"))
	db := storage.NewDatabase(s)
	lt := storage.NewTable(l, n)
	for i := range lt.Cols[0] {
		lt.Cols[0][i] = int64(1000 + i)
	}
	rt := storage.NewTable(r, 4)
	copy(rt.Cols[0], []int64{0, 1, 2, 3})
	lt.FinishLoad()
	rt.FinishLoad()
	db.Tables[l.ID], db.Tables[r.ID] = lt, rt
	return db, query.New([]*catalog.Table{l, r}, []query.Join{{Left: l.Column("k"), Right: r.Column("k")}}, nil)
}

// cancelAtCheckpoint cancels the execution's context at its first
// checkpoint and records the work done up to it.
type cancelAtCheckpoint struct {
	NopController // no pipelined checks
	ctx           *Ctx
	cancel        context.CancelFunc
	work          int64
}

func (c *cancelAtCheckpoint) OnMaterialized(*plan.Node, plan.Rows) error {
	if c.work == 0 {
		c.work = c.ctx.Work()
		c.cancel()
	}
	return nil
}

// TestIndexNLJoinFlushesUnmatchedOuterRows: an index nested-loop join whose
// outer rows find no index match still charges its probes in bounded lumps,
// so the work budget trips within flushAt of the limit and a cancellation
// stops the join within one poll interval.
func TestIndexNLJoinFlushesUnmatchedOuterRows(t *testing.T) {
	const outer = 50000
	db, q := missDB(outer)
	nl := func() *plan.Node {
		p := CanonicalPlan(q, q.AllTablesMask())
		setJoinOps(p, plan.NestLoopJoin)
		return p
	}
	op, err := Build(&Ctx{DB: db, Q: q}, nl())
	if err != nil {
		t.Fatal(err)
	}
	if j, ok := op.(*batchNLJoin); !ok || j.idxTable == nil {
		t.Fatal("fixture plan is not an index nested loop join")
	}
	full := &Ctx{DB: db, Q: q}
	if n, err := Run(full, nl()); err != nil || n != 0 {
		t.Fatalf("unlimited run: count %d, err %v; want 0, nil", n, err)
	}
	if full.Work() != 4*outer { // scan, materialize, index probe (2)
		t.Fatalf("unlimited work %d, want %d", full.Work(), 4*outer)
	}

	budget := full.Work() - outer/2
	ctx := &Ctx{DB: db, Q: q, Budget: budget}
	if _, err := Run(ctx, nl()); !errors.Is(err, ErrBudget) {
		t.Fatalf("budget %d: want ErrBudget, got %v", budget, err)
	}
	if ctx.Work() > budget+flushAt {
		t.Fatalf("budget %d tripped at work %d, more than flushAt past it", budget, ctx.Work())
	}

	cctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ctx = &Ctx{DB: db, Q: q, Context: cctx}
	ctrl := &cancelAtCheckpoint{ctx: ctx, cancel: cancel}
	ctx.Controller = ctrl
	if _, err := Run(ctx, nl()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled at the outer checkpoint: want context.Canceled, got %v", err)
	}
	if ran := ctx.Work() - ctrl.work; ran > cancelPollInterval+flushAt {
		t.Fatalf("join ran %d work units past the cancellation, want ≤ %d", ran, cancelPollInterval+flushAt)
	}
}

func BenchmarkHashTableBuild(b *testing.B) {
	rows := hashBuildRows(1<<16, 1<<12)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var tbl hashTable
		tbl.build(rows, buildConds)
		tbl.release()
	}
}

// uniqueBuildDB builds a star around the fact table f(fk, g, h): fk
// references d(id, e), g references u(id), h references v(id), and d.e
// references w(id). d's ids are unique and include 0 and the int64
// extremes; with dup set, one id repeats. f holds 3000 rows (three probe
// batches, runs crossing their boundaries) whose fk comes in runs of three
// equal keys, among them keys missing from d; g, h and d.e also miss some
// of u, v and w.
func uniqueBuildDB(dup bool) (*storage.Database, map[string]*catalog.Table) {
	s := catalog.NewSchema()
	d := s.AddTable("d", catalog.PK("id"), catalog.Attr("e"))
	u := s.AddTable("u", catalog.PK("id"))
	v := s.AddTable("v", catalog.PK("id"))
	w := s.AddTable("w", catalog.PK("id"))
	f := s.AddTable("f", catalog.FK("fk", d.Column("id")), catalog.FK("g", u.Column("id")), catalog.FK("h", v.Column("id")))
	db := storage.NewDatabase(s)
	fill := func(meta *catalog.Table, cols ...[]int64) {
		st := storage.NewTable(meta, len(cols[0]))
		for i, c := range cols {
			copy(st.Cols[i], c)
		}
		st.FinishLoad()
		db.Tables[meta.ID] = st
	}
	ids := []int64{math.MinInt64, -7, 0, 1, 2, 3, 5, 8, 13, math.MaxInt64}
	if dup {
		ids[4] = 1
	}
	fill(d, ids, []int64{0, 1, 2, 3, 0, 1, 2, 3, 0, 1})
	fill(u, []int64{0, 1, 2, 3, 4})
	fill(v, []int64{0, 1, 2, 3, 4, 5})
	fill(w, []int64{0, 1, 2})
	keys := []int64{0, math.MinInt64, 4, 1, math.MaxInt64, 6, -7, 13, 13, 99, 2, 3, 5, 8, math.MinInt64, math.MaxInt64}
	const n = 3000
	fk, g, h := make([]int64, n), make([]int64, n), make([]int64, n)
	for i := range fk {
		fk[i], g[i], h[i] = keys[i/3%len(keys)], int64(i%7), int64(i%5)
	}
	fill(f, fk, g, h)
	return db, map[string]*catalog.Table{"d": d, "u": u, "v": v, "w": w, "f": f}
}

// hashOnto joins each table onto root, left-deep, as a hash join's build
// side.
func hashOnto(q *query.Query, root *plan.Node, tabs ...*catalog.Table) *plan.Node {
	for _, tb := range tabs {
		x := plan.NewLeaf(plan.SeqScan, tb, q.TableIndex(tb), nil)
		root = plan.NewJoin(plan.HashJoin, root, x, q.JoinsBetween(root.Tables, x.Tables))
	}
	return root
}

// generalPath keeps a hash join on the lookupBatch + emit path by clearing
// its table's unique flag once Open has built it.
type generalPath struct{ BatchOperator }

func (g generalPath) Open(ctx *Ctx) error {
	err := g.BatchOperator.Open(ctx)
	if h, ok := g.BatchOperator.(*batchHashJoin); ok {
		h.table.unique = false
	}
	return err
}

// TestHashJoinUniqueBuild holds the unique-build probe to the reference and
// to the general path. The join of f probing d is built on d's primary key,
// at output widths 0, 1 and 2, probe-only and with build columns, both on
// the probe spine and drained as another join's build side (so its rows
// are checkpointed): counts, every checkpoint's rows and TrueCard must
// equal the reference, and count, checkpoints, TrueCards and Work must
// equal the same plan forced onto the general path. The path is taken on
// the primary-key build, and not once one build key repeats or the join
// has two conditions.
func TestHashJoinUniqueBuild(t *testing.T) {
	for _, dup := range []bool{false, true} {
		db, tab := uniqueBuildDB(dup)
		d, f := tab["d"], tab["f"]
		joins := map[string]query.Join{
			"d": {Left: f.Column("fk"), Right: d.Column("id")},
			"u": {Left: f.Column("g"), Right: tab["u"].Column("id")},
			"v": {Left: f.Column("h"), Right: tab["v"].Column("id")},
			"w": {Left: d.Column("e"), Right: tab["w"].Column("id")},
		}
		for _, c := range []struct {
			name      string
			above     []string // tables joined above f ⋈ d, in join order
			width     int      // f ⋈ d's output width
			probeOnly bool
		}{
			{"width0", nil, 0, true},
			{"probe1", []string{"u"}, 1, true},
			{"probe2", []string{"u", "v"}, 2, true},
			{"build1", []string{"w"}, 1, false},
			{"mixed2", []string{"u", "w"}, 2, false},
		} {
			tables := []*catalog.Table{f, d}
			qj := []query.Join{joins["d"]}
			var above []*catalog.Table
			for _, name := range c.above {
				above = append(above, tab[name])
				qj = append(qj, joins[name])
			}
			q := query.New(append(tables, above...), qj, nil)
			fd := func() *plan.Node { return hashOnto(q, plan.NewLeaf(plan.SeqScan, f, q.TableIndex(f), nil), d) }
			fdMask := query.NewBitSet().Set(q.TableIndex(f)).Set(q.TableIndex(d))
			// spine: f ⋈ d streams into the joins above it
			shapes := map[string]*plan.Node{"spine": hashOnto(q, fd(), above...)}
			if len(above) > 0 {
				// built: the first table above probes f ⋈ d's drained rows
				x := plan.NewLeaf(plan.SeqScan, above[0], q.TableIndex(above[0]), nil)
				root := plan.NewJoin(plan.HashJoin, x, fd(), q.JoinsBetween(x.Tables, fdMask))
				shapes["built"] = hashOnto(q, root, above[1:]...)
			}
			for shape, p := range shapes {
				name := fmt.Sprintf("dup=%v/%s/%s", dup, c.name, shape)
				var join *plan.Node
				p.Walk(func(n *plan.Node) {
					if n.Tables == fdMask {
						join = n
					}
				})
				ctx := &Ctx{DB: db, Q: q}
				op, err := newBatchHashJoin(ctx, join)
				if err != nil {
					t.Fatal(err)
				}
				if err := op.Open(ctx); err != nil {
					t.Fatal(err)
				}
				if op.oneCandidate() == dup || op.probeOnly != c.probeOnly || op.merge.width() != c.width {
					t.Fatalf("%s: unique path %v, probeOnly %v at width %d; want %v, %v at width %d",
						name, op.oneCandidate(), op.probeOnly, op.merge.width(), !dup, c.probeOnly, c.width)
				}
				op.Close()

				fused, events := checkAgainstReference(t, db, q, p.Clone(), name, newRefEval(db, q))
				rc := &ckptRecorder{}
				general := &Ctx{DB: db, Q: q, Controller: rc,
					Wrap: func(_ *Ctx, op BatchOperator, _ *plan.Node) BatchOperator { return generalPath{op} }}
				gp := p.Clone()
				count, err := Run(general, gp)
				if err != nil {
					t.Fatalf("%s: general path: %v", name, err)
				}
				fp := p.Clone()
				if _, err := Run(&Ctx{DB: db, Q: q}, fp); err != nil {
					t.Fatal(err)
				}
				if count != int(fp.TrueCard) || general.Work() != fused.Work() || !slices.Equal(rc.events, events) ||
					!maps.Equal(trueCards(gp), trueCards(fp)) {
					t.Fatalf("%s: general path count %d work %d, unique path count %v work %d (checkpoints or TrueCards differ: %v)",
						name, count, general.Work(), fp.TrueCard, fused.Work(), !slices.Equal(rc.events, events))
				}
			}
		}
	}

	// two conditions on a unique build: the general path, verified per key
	db, tab := uniqueBuildDB(false)
	d, f := tab["d"], tab["f"]
	q := query.New([]*catalog.Table{f, d}, []query.Join{
		{Left: f.Column("fk"), Right: d.Column("id")}, {Left: f.Column("g"), Right: d.Column("e")}}, nil)
	l, r := plan.NewLeaf(plan.SeqScan, f, q.TableIndex(f), nil), plan.NewLeaf(plan.SeqScan, d, q.TableIndex(d), nil)
	p := plan.NewJoin(plan.HashJoin, l, r, q.JoinsBetween(l.Tables, r.Tables))
	ctx := &Ctx{DB: db, Q: q}
	op, err := newBatchHashJoin(ctx, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Open(ctx); err != nil {
		t.Fatal(err)
	}
	if !op.table.unique || op.oneCandidate() {
		t.Fatalf("two conditions: table unique %v, unique path %v; want a unique table on the general path",
			op.table.unique, op.oneCandidate())
	}
	op.Close()
	checkAgainstReference(t, db, q, p, "two conditions", newRefEval(db, q))
}
