package exec

import (
	"maps"
	"slices"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// passRows is the size of passDB's fan-out table m: three full batches and
// a partial one.
const passRows = 3*BatchSize + 300

// passDB builds the pass-through fixture. f(id) is fanned out by m(fid),
// four m rows per f row, so f ⋈ m probed by f streams m's rows in m's
// order, in full batches of BatchSize. m's other columns are foreign keys
// into primary keys: kh, ka and kb always match h, a and b; kfirst misses
// c on the first row of every BatchSize rows of m, and klast misses d on
// the last. g holds three rows for each of b's first 25 ids (a fan-out
// build with misses) and a foreign key gx into x; w is the target of a.e;
// p's (pa, pb) pairs hold (ka, kb) of most m rows, a two-condition build.
// Every table's ids start at its own base, so a key read from the wrong
// column misses; kh comes first in m, so a view that drops it maps ka and
// kb to other offsets.
func passDB() (*storage.Database, map[string]*catalog.Table) {
	s := catalog.NewSchema()
	tab := map[string]*catalog.Table{}
	for _, name := range []string{"b", "c", "d", "h", "w", "x", "f"} {
		tab[name] = s.AddTable(name, catalog.PK("id"))
	}
	tab["a"] = s.AddTable("a", catalog.PK("id"), catalog.FK("e", tab["w"].Column("id")))
	tab["m"] = s.AddTable("m", catalog.FK("fid", tab["f"].Column("id")), catalog.FK("kh", tab["h"].Column("id")),
		catalog.FK("ka", tab["a"].Column("id")), catalog.FK("kb", tab["b"].Column("id")),
		catalog.FK("kfirst", tab["c"].Column("id")), catalog.FK("klast", tab["d"].Column("id")))
	tab["g"] = s.AddTable("g", catalog.FK("gb", tab["b"].Column("id")), catalog.FK("gx", tab["x"].Column("id")))
	tab["p"] = s.AddTable("p", catalog.FK("pa", tab["a"].Column("id")), catalog.FK("pb", tab["b"].Column("id")))

	db := storage.NewDatabase(s)
	fill := func(name string, n int, col func(c, r int) int64) {
		st := storage.NewTable(tab[name], n)
		for c := range st.Cols {
			for r := range n {
				st.Cols[c][r] = col(c, r)
			}
		}
		st.FinishLoad()
		db.Tables[tab[name].ID] = st
	}
	const a, h, b, c, d, w, x, f = 0, 100, 200, 300, 400, 500, 600, 10000 // id bases
	for _, dim := range []struct {
		name    string
		base, n int
	}{{"b", b, 30}, {"c", c, 40}, {"d", d, 50}, {"h", h, 10}, {"w", w, 3}, {"x", x, 5}, {"f", f, passRows / 4}} {
		fill(dim.name, dim.n, func(_, r int) int64 { return int64(dim.base + r) })
	}
	fill("a", 20, func(col, r int) int64 { return int64([]int{a + r, w + r%3}[col]) })
	fill("m", passRows, func(col, r int) int64 {
		switch {
		case col == 4 && r%BatchSize == 0:
			return -1 // kfirst misses
		case col == 5 && r%BatchSize == BatchSize-1:
			return -1 // klast misses
		}
		return int64([]int{f + r/4, h + r%10, a + r%20, b + r%30, c + r%40, d + r%50}[col])
	})
	fill("g", 75, func(col, r int) int64 { return int64([]int{b + r/3, x + r%5}[col]) })
	var pairs []int
	for i := range 60 {
		if i%7 != 0 {
			pairs = append(pairs, i)
		}
	}
	fill("p", len(pairs), func(col, r int) int64 { return int64([]int{a + pairs[r]%20, b + pairs[r]%30}[col]) })
	return db, tab
}

// passQuery is the query over f, m and the named tables, with each table's
// joins: m's foreign keys to the dimensions, m.kb = g.gb, g.gx = x.id,
// a.e = w.id, and m.ka = p.pa with m.kb = p.pb.
func passQuery(tab map[string]*catalog.Table, names ...string) *query.Query {
	m := tab["m"]
	on := func(l *catalog.Column, r string) query.Join { return query.Join{Left: l, Right: tab[r].Column("id")} }
	joins := map[string][]query.Join{
		"m": {{Left: m.Column("fid"), Right: tab["f"].Column("id")}},
		"a": {on(m.Column("ka"), "a")},
		"b": {on(m.Column("kb"), "b")},
		"h": {on(m.Column("kh"), "h")},
		"c": {on(m.Column("kfirst"), "c")},
		"d": {on(m.Column("klast"), "d")},
		"g": {{Left: m.Column("kb"), Right: tab["g"].Column("gb")}},
		"x": {on(tab["g"].Column("gx"), "x")},
		"w": {on(tab["a"].Column("e"), "w")},
		"p": {{Left: m.Column("ka"), Right: tab["p"].Column("pa")}, {Left: m.Column("kb"), Right: tab["p"].Column("pb")}},
	}
	tables := []*catalog.Table{tab["f"], m}
	qj := joins["m"]
	for _, name := range names {
		tables = append(tables, tab[name])
		qj = append(qj, joins[name]...)
	}
	return query.New(tables, qj, nil)
}

// passCase is one plan over passDB: the fan-out join f ⋈ m followed by
// joins onto the named tables. partial marks plans whose pass-through
// joins also meet a probe batch with misses.
type passCase struct {
	name    string
	tables  []string
	plan    func(q *query.Query, tab map[string]*catalog.Table) *plan.Node
	partial bool
}

// fanOut is f ⋈ m, f probing m's fid build, with the named tables hashed
// on, left-deep.
func fanOut(q *query.Query, tab map[string]*catalog.Table, names ...string) *plan.Node {
	root := hashOnto(q, plan.NewLeaf(plan.SeqScan, tab["f"], q.TableIndex(tab["f"]), nil), tab["m"])
	for _, name := range names {
		root = hashOnto(q, root, tab[name])
	}
	return root
}

func spine(names ...string) func(*query.Query, map[string]*catalog.Table) *plan.Node {
	return func(q *query.Query, tab map[string]*catalog.Table) *plan.Node { return fanOut(q, tab, names...) }
}

func passCases() []passCase {
	// under joins onto b, the view of f ⋈ m ⋈ a ⋈ h is a hash build or a
	// nested loop's outer
	under := func(op plan.PhysOp) func(*query.Query, map[string]*catalog.Table) *plan.Node {
		return func(q *query.Query, tab map[string]*catalog.Table) *plan.Node {
			inner := fanOut(q, tab, "a", "h")
			b := plan.NewLeaf(plan.SeqScan, tab["b"], q.TableIndex(tab["b"]), nil)
			if op == plan.NestLoopJoin {
				return plan.NewJoin(op, inner, b, q.JoinsBetween(inner.Tables, b.Tables))
			}
			return plan.NewJoin(op, b, inner, q.JoinsBetween(b.Tables, inner.Tables))
		}
	}
	return []passCase{
		{"all-match", []string{"a", "b", "h"}, spine("a", "b", "h"), false},
		{"first-row-misses", []string{"a", "c", "b", "h"}, spine("a", "c", "b", "h"), true},
		{"last-row-misses", []string{"a", "d", "b", "h"}, spine("a", "d", "b", "h"), true},
		{"into-fanout", []string{"a", "g", "x", "h"}, spine("a", "g", "x", "h"), false},
		{"into-probe-only-fanout", []string{"h", "g", "a"}, spine("h", "g", "a"), false},
		{"into-build-columns", []string{"h", "a", "w", "d"}, spine("h", "a", "w", "d"), false},
		{"into-two-conditions", []string{"h", "p", "a"}, spine("h", "p", "a"), false},
		{"hash-build", []string{"a", "h", "b"}, under(plan.HashJoin), false},
		{"nestloop-outer", []string{"a", "h", "b"}, under(plan.NestLoopJoin), false},
	}
}

// copyPath keeps a hash join off the pass-through by clearing probeOnly:
// the unique-build probe then copies every match, merging it with a build
// row it does not read, and the general path merges per candidate.
type copyPath struct{ BatchOperator }

func (c copyPath) Open(ctx *Ctx) error {
	if h, ok := c.BatchOperator.(*batchHashJoin); ok {
		h.probeOnly = false
	}
	return c.BatchOperator.Open(ctx)
}

// rowsRecorder keeps a copy of every checkpoint's rows.
type rowsRecorder struct {
	masks []query.BitSet
	rows  []plan.Rows
}

func (r *rowsRecorder) OnMaterialized(n *plan.Node, rows plan.Rows) error {
	r.masks = append(r.masks, n.Tables)
	r.rows = append(r.rows, plan.Rows{N: rows.N, Width: rows.Width, Data: slices.Clone(rows.Data[:rows.N*rows.Width])})
	return nil
}

// viewCheck wraps every operator to remember the batch it last returned;
// around a hash join it checks each output batch against the probe batch
// it came from: the output shares the probe's arena exactly when the join
// is a unique-build, probe-only join with output columns and every probe
// row matched.
type viewCheck struct {
	t        *testing.T
	name     string
	last     map[*plan.Node]*Batch
	views    int // output batches that were the probe batch re-labelled
	partials int // pass-through-eligible probe batches with some misses
}

type viewCheckOp struct {
	BatchOperator
	node *plan.Node
	v    *viewCheck
}

func (v *viewCheck) wrap(_ *Ctx, op BatchOperator, n *plan.Node) BatchOperator {
	return &viewCheckOp{op, n, v}
}

func (o *viewCheckOp) NextBatch(ctx *Ctx) (*Batch, error) {
	b, err := o.BatchOperator.NextBatch(ctx)
	o.v.last[o.node] = b
	h, ok := o.BatchOperator.(*batchHashJoin)
	if !ok || b == nil {
		return b, err
	}
	// the general path returns its last rows after its probe side ended
	probe := o.v.last[o.node.Left]
	if probe == nil {
		probe = &Batch{}
	}
	eligible := h.oneCandidate() && h.probeOnly && h.merge.width() > 0
	shares := len(b.data) > 0 && len(probe.data) > 0 && &b.data[0] == &probe.data[0]
	if want := eligible && b.n == probe.n; shares != want {
		o.v.t.Fatalf("%s: join at %b returned %d of %d probe rows sharing the probe arena %v, want %v",
			o.v.name, uint32(o.node.Tables), b.n, probe.n, shares, want)
	}
	if shares {
		if b.box != nil || b.Width() != h.merge.width() || b.stride != probe.stride {
			o.v.t.Fatalf("%s: view at %b owns an arena (%v) or has width %d stride %d (want %d, %d)",
				o.v.name, uint32(o.node.Tables), b.box != nil, b.Width(), b.stride, h.merge.width(), probe.stride)
		}
		o.v.views++
	} else if eligible {
		o.v.partials++
	}
	return b, err
}

// runPass runs p on a fresh clone, recording checkpoint rows, and returns
// the count, the Ctx and the recorder.
func runPass(t *testing.T, db *storage.Database, q *query.Query, p *plan.Node, wrap WrapFunc) (*plan.Node, int, *Ctx, *rowsRecorder) {
	t.Helper()
	rc := &rowsRecorder{}
	ctx := &Ctx{DB: db, Q: q, Controller: rc, Wrap: wrap}
	run := p.Clone()
	count, err := Run(ctx, run)
	if err != nil {
		t.Fatal(err)
	}
	return run, count, ctx, rc
}

// TestHashJoinPassThrough holds the unique-build pass-through to the
// reference and to the copy path. Over passDB, a fan-out join feeds chains
// of primary-key joins where every row matches (so views are passed
// through again, as views of views), the first row of each batch misses,
// or only the last does; views are the probe of a fan-out join (emit), of
// a unique join that reads build columns, and of a two-condition join, and
// reach a hash build, a nested loop's outer and their checkpoints. Counts, TrueCards and checkpoint rows must equal the
// reference; count, Work, TrueCards and checkpoint rows, byte for byte,
// must equal the same plan forced onto the copy path. Every output batch
// shares its probe batch's arena exactly when the join may pass through
// and every probe row matched.
func TestHashJoinPassThrough(t *testing.T) {
	db, tab := passDB()
	for _, c := range passCases() {
		q := passQuery(tab, c.tables...)
		p := c.plan(q, tab)
		checkAgainstReference(t, db, q, p.Clone(), c.name, newRefEval(db, q))

		vc := &viewCheck{t: t, name: c.name, last: map[*plan.Node]*Batch{}}
		got, count, ctx, rc := runPass(t, db, q, p, vc.wrap)
		if vc.views == 0 || (vc.partials > 0) != c.partial {
			t.Fatalf("%s: %d views, %d pass-through batches with misses; want views, and misses %v",
				c.name, vc.views, vc.partials, c.partial)
		}
		cp, cpCount, cpCtx, cpRC := runPass(t, db, q, p, func(_ *Ctx, op BatchOperator, _ *plan.Node) BatchOperator {
			return copyPath{op}
		})
		if count != cpCount || ctx.Work() != cpCtx.Work() || !maps.Equal(trueCards(got), trueCards(cp)) {
			t.Fatalf("%s: count %d work %d, copy path count %d work %d (TrueCards equal: %v)",
				c.name, count, ctx.Work(), cpCount, cpCtx.Work(), maps.Equal(trueCards(got), trueCards(cp)))
		}
		if !slices.Equal(rc.masks, cpRC.masks) ||
			!slices.EqualFunc(rc.rows, cpRC.rows, func(a, b plan.Rows) bool {
				return a.N == b.N && a.Width == b.Width && slices.Equal(a.Data, b.Data)
			}) {
			t.Fatalf("%s: checkpoints %v differ from the copy path's %v", c.name, rc.masks, cpRC.masks)
		}
	}
}
