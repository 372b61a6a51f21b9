package exec

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/sqlparse"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// Projected tuple layouts must change which bytes move and nothing else.
// Two oracles hold that down:
//
//   - a full-width reference evaluator (below; test-only, shares no code
//     with the executor) that joins raw columns into rows carrying every
//     column of every covered table — the layout the executor itself used
//     before projection. At every checkpoint the buffered rows must equal
//     the reference rows projected to the live columns, as multisets;
//   - testdata/projection_pins.golden, written by this same test at the last
//     full-width commit: COUNT(*), Work(), MatRows(), per-node TrueCards,
//     checkpoint (mask, card) sequences and the typed errors under a work
//     budget and a materialized-rows limit, per plan variant, plus the
//     training-sample collector's work, TrueCards and budget outcome. The
//     executor must reproduce the pinned line.

var updatePins = flag.Bool("update-pins", false,
	"rewrite testdata/projection_pins.golden from this build instead of checking it (only meaningful on a commit whose accounting is the reference)")

const projectionPinsFile = "testdata/projection_pins.golden"

// refEval is the full-width reference for one query.
type refEval struct {
	db   *storage.Database
	q    *query.Query
	memo map[query.BitSet][][]int64 // projected, sorted rows per subset
}

func newRefEval(db *storage.Database, q *query.Query) *refEval {
	return &refEval{db: db, q: q, memo: make(map[query.BitSet][][]int64)}
}

// fullOffsets returns each covered table's starting offset in a full-width
// row over mask, and the row width.
func (r *refEval) fullOffsets(mask query.BitSet) (map[int]int, int) {
	off, width := make(map[int]int), 0
	for _, i := range mask.Indices() {
		off[i] = width
		width += len(r.q.Tables[i].Columns)
	}
	return off, width
}

// fullRows joins the tables of mask by nested loops over the raw columns and
// returns full-width rows: all columns of all covered tables, ascending
// local index. Tables are attached in connected order; the inner loop visits
// only the rows sharing the first connecting condition's value (bucketed
// from the raw column here) and verifies every other condition.
func (r *refEval) fullRows(mask query.BitSet) [][]int64 {
	q := r.q
	off, width := r.fullOffsets(mask)
	rows := [][]int64{make([]int64, width)}
	covered := query.NewBitSet()
	remaining := mask.Indices()
	for len(remaining) > 0 {
		pick := 0
		for k, i := range remaining {
			if len(q.JoinsBetween(covered, query.NewBitSet().Set(i))) > 0 {
				pick = k
				break
			}
		}
		i := remaining[pick]
		remaining = slices.Delete(remaining, pick, pick+1)
		tab := r.db.Table(q.Tables[i])

		type cond struct{ pos, rowOff int }
		var conds []cond
		for _, j := range q.JoinsBetween(covered, query.NewBitSet().Set(i)) {
			in, out := j.Left, j.Right
			if q.TableIndex(in.Table) != i {
				in, out = out, in
			}
			conds = append(conds, cond{in.Pos, off[q.TableIndex(out.Table)] + out.Pos})
		}
		var rids []int
		for rid := 0; rid < tab.NumRows(); rid++ {
			ok := true
			for _, p := range q.PredsOn(q.Tables[i]) {
				ok = ok && p.Eval(tab.Cols[p.Col.Pos][rid])
			}
			if ok {
				rids = append(rids, rid)
			}
		}
		byKey := make(map[int64][]int)
		if len(conds) > 0 {
			for _, rid := range rids {
				v := tab.Cols[conds[0].pos][rid]
				byKey[v] = append(byKey[v], rid)
			}
		}
		var next [][]int64
		for _, row := range rows {
			cands := rids
			if len(conds) > 0 {
				cands = byKey[row[conds[0].rowOff]]
			}
			for _, rid := range cands {
				match := true
				for _, c := range conds {
					match = match && tab.Cols[c.pos][rid] == row[c.rowOff]
				}
				if !match {
					continue
				}
				cp := slices.Clone(row)
				for c := range tab.Cols {
					cp[off[i]+c] = tab.Cols[c][rid]
				}
				next = append(next, cp)
			}
		}
		rows = next
		covered = covered.Set(i)
	}
	return rows
}

// liveOffsets lists, ascending, the full-width offsets of the columns of
// mask's tables that some join condition connects to a table outside mask —
// the projection rule restated without plan.Layout.
func (r *refEval) liveOffsets(mask query.BitSet) []int {
	q := r.q
	off, _ := r.fullOffsets(mask)
	var offs []int
	for _, i := range mask.Indices() {
		for _, col := range q.Tables[i].Columns {
			for _, j := range q.Joins {
				if (j.Left == col && !mask.Has(q.TableIndex(j.Right.Table))) ||
					(j.Right == col && !mask.Has(q.TableIndex(j.Left.Table))) {
					offs = append(offs, off[i]+col.Pos)
					break
				}
			}
		}
	}
	return offs
}

// projected returns the reference rows of mask projected to the live columns
// and sorted.
func (r *refEval) projected(mask query.BitSet) [][]int64 {
	if rows, ok := r.memo[mask]; ok {
		return rows
	}
	offs := r.liveOffsets(mask)
	full := r.fullRows(mask)
	rows := make([][]int64, len(full))
	for i, f := range full {
		rows[i] = make([]int64, len(offs))
		for k, o := range offs {
			rows[i][k] = f[o]
		}
	}
	slices.SortFunc(rows, slices.Compare[[]int64])
	r.memo[mask] = rows
	return rows
}

// checkRows fails t unless rows, as a multiset, equal the reference rows of
// mask projected to the live columns.
func (r *refEval) checkRows(t testing.TB, name string, mask query.BitSet, rows plan.Rows) {
	t.Helper()
	got := rowList(rows)
	slices.SortFunc(got, slices.Compare[[]int64])
	want := r.projected(mask)
	if !slices.EqualFunc(got, want, slices.Equal[[]int64]) {
		t.Fatalf("%s: rows buffered at subset %b differ from the projected reference (%d rows of width %d, want %d of width %d)",
			name, uint32(mask), len(got), rowWidth(got), len(want), rowWidth(want))
	}
}

// refController checks every checkpoint's rows against the reference and
// records the (mask, card) sequence.
type refController struct {
	NopController // no pipelined checks
	t             *testing.T
	name          string
	ref           *refEval // nil: record only
	ckpts         []string
}

func (c *refController) OnMaterialized(n *plan.Node, rows plan.Rows) error {
	c.ckpts = append(c.ckpts, fmt.Sprintf("%b:%d", uint32(n.Tables), rows.N))
	if c.ref != nil {
		c.ref.checkRows(c.t, c.name, n.Tables, rows)
	}
	return nil
}

// rowList lists a row set's tuples as separate views, the reference's form.
func rowList(rows plan.Rows) [][]int64 {
	out := make([][]int64, rows.N)
	for i := range out {
		out[i] = rows.Row(i)
	}
	return out
}

func rowWidth(rows [][]int64) int {
	if len(rows) == 0 {
		return -1
	}
	return len(rows[0])
}

// errPin renders an execution error for the pin line: the typed errors'
// messages are deterministic (ResourceError carries limit and used).
func errPin(err error) string {
	var sig *ReoptSignal
	switch {
	case err == nil:
		return "ok"
	case errors.As(err, &sig):
		return fmt.Sprintf("reopt(%b,%d)", uint32(sig.Node.Tables), sig.Actual)
	default:
		return strings.ReplaceAll(err.Error(), " ", "_")
	}
}

// observe runs one plan variant — unlimited, then under half its work
// budget and under half its materialized rows — and
// renders every pinned observable as one line. With ref set, the unlimited
// run's checkpoint rows and final count are checked against the reference.
func observe(t *testing.T, db *storage.Database, q *query.Query, p *plan.Node, name string, ref *refEval) string {
	full := p.Clone()
	rc := &refController{t: t, name: name, ref: ref}
	ctx := &Ctx{DB: db, Q: q, Controller: rc}
	count, err := Run(ctx, full)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if ref != nil {
		if want := len(ref.projected(q.AllTablesMask())); count != want {
			t.Fatalf("%s: count %d, reference %d", name, count, want)
		}
	}
	var cards []string
	full.Walk(func(n *plan.Node) { cards = append(cards, fmt.Sprint(n.TrueCard)) })
	line := fmt.Sprintf("%s count=%d work=%d mat=%d cards=%s ckpts=%s",
		name, count, ctx.Work(), ctx.MatRows(), strings.Join(cards, ","), strings.Join(rc.ckpts, ","))

	// a budget of half the work: the typed error and how many checkpoints
	// completed before it (work at the failure point is path-specific)
	rb := &refController{}
	bctx := &Ctx{DB: db, Q: q, Controller: rb, Budget: ctx.Work() / 2}
	_, err = Run(bctx, p.Clone())
	line += fmt.Sprintf(" budget/2=%s@%d", errPin(err), len(rb.ckpts))

	// a limit of half the materialized rows: the typed error carries the
	// limit and the row that crossed it
	if half := ctx.MatRows() / 2; half > 0 {
		mctx := &Ctx{DB: db, Q: q, Controller: NopController{}, MaxMatRows: half}
		_, err = Run(mctx, p.Clone())
		line += fmt.Sprintf(" mat/2=%s", errPin(err))
	}
	return line
}

// observeCollect pins the training-sample collector the same way: its work,
// the per-node TrueCards it stamps (checked against the reference when ref
// is set) and its outcome under half that work — which generated queries fit
// a collect budget decides the training set, and through it every model.
func observeCollect(t *testing.T, db *storage.Database, q *query.Query, p *plan.Node, name string, ref *refEval) string {
	full := p.Clone()
	ctx := &Ctx{DB: db, Q: q}
	if _, err := RunCollect(ctx, full); err != nil {
		t.Fatalf("%s collect: %v", name, err)
	}
	var cards []string
	full.Walk(func(n *plan.Node) {
		cards = append(cards, fmt.Sprint(n.TrueCard))
		if ref != nil && int(n.TrueCard) != len(ref.projected(n.Tables)) {
			t.Fatalf("%s collect: TrueCard %v at subset %b, reference %d", name, n.TrueCard, uint32(n.Tables), len(ref.projected(n.Tables)))
		}
	})
	_, err := RunCollect(&Ctx{DB: db, Q: q, Budget: ctx.Work() / 2}, p.Clone())
	return fmt.Sprintf(" collect=%d:%s collect/2=%s", ctx.Work(), strings.Join(cards, ","), errPin(err))
}

// deepPlanQueries parses bench/queries/deep_plan.sql against the schema.
func deepPlanQueries(t *testing.T, db *storage.Database) []*query.Query {
	raw, err := os.ReadFile("../../bench/queries/deep_plan.sql")
	if err != nil {
		t.Fatal(err)
	}
	var sql strings.Builder
	for _, line := range strings.Split(string(raw), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "--") {
			sql.WriteString(line)
			sql.WriteByte(' ')
		}
	}
	var out []*query.Query
	for _, stmt := range strings.Split(sql.String(), ";") {
		if strings.TrimSpace(stmt) == "" {
			continue
		}
		q, err := sqlparse.Parse(db.Schema, stmt)
		if err != nil {
			t.Fatalf("deep_plan.sql: %v", err)
		}
		out = append(out, q)
	}
	return out
}

// projVariant is one plan variant of the pinned projection corpus.
type projVariant struct {
	name string
	q    *query.Query
	p    *plan.Node
}

// projectionVariants lists the pinned corpus: the plan variants of twelve
// generated queries and of the deep_plan queries, on SmallDB.
func projectionVariants(t *testing.T, db *storage.Database) []projVariant {
	var variants []projVariant
	add := func(prefix string, q *query.Query) {
		planVariants(q, func(q *query.Query, p *plan.Node, v string) {
			variants = append(variants, projVariant{prefix + "/" + v, q, p})
		})
	}
	g := workload.NewGenerator(db, 41)
	for i := 0; i < 12; i++ {
		add(fmt.Sprintf("corpus%02d", i), g.Query(1+i%3))
	}
	for i, q := range deepPlanQueries(t, db) {
		add(fmt.Sprintf("d%02d", i+1), q)
	}
	return variants
}

// loadProjectionPins reads the pinned line of every corpus variant, keyed by
// variant name.
func loadProjectionPins(t *testing.T) map[string]string {
	raw, err := os.ReadFile(projectionPinsFile)
	if err != nil {
		t.Fatal(err)
	}
	pins := make(map[string]string)
	for _, line := range strings.Split(string(raw), "\n") {
		if name, _, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			pins[name] = line
		}
	}
	return pins
}

// TestProjectedExecution runs the plan-variant corpus and the deep_plan
// queries through the executor against both oracles.
func TestProjectedExecution(t *testing.T) {
	db := testutil.SmallDB()
	variants := projectionVariants(t, db)
	var pins map[string]string
	if !*updatePins {
		pins = loadProjectionPins(t)
		if len(pins) != len(variants) {
			t.Fatalf("%d pinned variants, corpus has %d", len(pins), len(variants))
		}
	}

	refs := make(map[*query.Query]*refEval)
	var lines []string
	for _, v := range variants {
		var ref *refEval
		if !*updatePins {
			// the row check needs the projected executor; an -update-pins
			// run (on a full-width commit) records accounting only
			if ref = refs[v.q]; ref == nil {
				ref = newRefEval(db, v.q)
				refs[v.q] = ref
			}
		}
		line := observe(t, db, v.q, v.p, v.name, ref) + observeCollect(t, db, v.q, v.p, v.name, ref)
		if *updatePins {
			lines = append(lines, line)
		} else if line != pins[v.name] {
			t.Errorf("accounting moved from the pinned full-width values:\n got %s\nwant %s", line, pins[v.name])
		}
	}
	if *updatePins {
		head := "# Pinned by `go test ./internal/exec -run TestProjectedExecution -update-pins` at commit df1aa30,\n" +
			"# the last one whose tuples carried every column of every covered table.\n" +
			"# The mixed lines (hash and nested-loop joins alternating) were re-pinned the same way at\n" +
			"# commit c0ad014, the last one with a merge join, whose mixed variant alternated all three.\n"
		if err := os.WriteFile(projectionPinsFile, []byte(head+strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestProjectedMatScanReuseAcrossJoinColumn buffers {title, movie_keyword}
// under a plan that would next join it to keyword through
// movie_keyword.keyword_id, then resumes from the buffered rows in a replan
// that first joins cast_info on title.id instead — a different live column.
// Both columns are live in the subset whatever the plan, so the replan's
// MatScan reads them where the first plan's join wrote them.
func TestProjectedMatScanReuseAcrossJoinColumn(t *testing.T) {
	db := testutil.TinyDB()
	q, err := sqlparse.Parse(db.Schema, `SELECT COUNT(*) FROM title, movie_keyword, keyword, cast_info
		WHERE movie_keyword.movie_id = title.id AND movie_keyword.keyword_id = keyword.id
		  AND cast_info.movie_id = title.id AND title.id < 120`)
	if err != nil {
		t.Fatal(err)
	}
	tbl := func(name string) (*plan.Node, query.BitSet) {
		tab := db.Schema.Table(name)
		i := q.TableIndex(tab)
		return plan.NewLeaf(plan.SeqScan, tab, i, q.PredsOn(tab)), query.NewBitSet().Set(i)
	}
	title, tMask := tbl("title")
	mk, mkMask := tbl("movie_keyword")
	kw, kwMask := tbl("keyword")
	ci, ciMask := tbl("cast_info")
	sub := tMask.Union(mkMask)

	// plan A: (keyword ⋈ (title ⋈ movie_keyword)) ⋈ cast_info — the pair is
	// a hash build side, so it is buffered and checkpointed first
	pair := plan.NewJoin(plan.HashJoin, title, mk, q.JoinsBetween(tMask, mkMask))
	chain := plan.NewJoin(plan.HashJoin, kw, pair, q.JoinsBetween(kwMask, sub))
	planA := plan.NewJoin(plan.HashJoin, chain, ci, q.JoinsBetween(chain.Tables, ciMask))

	want := testutil.BruteCount(db, q)
	if want == 0 {
		t.Fatal("fixture query is empty")
	}
	rec := &rowKeeper{failAt: sub}
	_, err = Run(&Ctx{DB: db, Q: q, Controller: rec}, planA)
	var sig *ReoptSignal
	if !errors.As(err, &sig) || sig.Node.Tables != sub {
		t.Fatalf("expected a ReoptSignal at the pair, got %v", err)
	}
	// title.id and movie_keyword.keyword_id survive; movie_keyword.movie_id
	// was consumed by the join inside the subset
	if w := rec.rows.Width; w != 2 {
		t.Fatalf("buffered pair rows have width %d, want 2", w)
	}
	// plan B: (MatScan{title, movie_keyword} ⋈ cast_info on title.id) ⋈ keyword
	mat := plan.NewMatLeaf(&plan.Materialized{Tables: sub, Rows: rec.rows})
	star := plan.NewJoin(plan.HashJoin, mat, ci, q.JoinsBetween(sub, ciMask))
	planB := plan.NewJoin(plan.HashJoin, star, kw.Clone(), q.JoinsBetween(star.Tables, kwMask))
	got, err := Run(&Ctx{DB: db, Q: q, Controller: NopController{}}, planB)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("resumed from the buffered pair: count %d, want %d", got, want)
	}
}

// rowKeeper retains the rows of the checkpoint at failAt and pauses there.
type rowKeeper struct {
	NopController // no pipelined checks
	failAt        query.BitSet
	rows          plan.Rows
}

func (k *rowKeeper) OnMaterialized(n *plan.Node, rows plan.Rows) error {
	if n.Tables != k.failAt {
		return nil
	}
	k.rows = rows
	return &ReoptSignal{Node: n, Actual: rows.N}
}

// TestMatScanRejectsForeignLayout: rows that are not in the subset's
// projected layout fail the scan instead of being read at wrong offsets.
func TestMatScanRejectsForeignLayout(t *testing.T) {
	db := testutil.TinyDB()
	q, err := sqlparse.Parse(db.Schema, `SELECT COUNT(*) FROM title, movie_keyword WHERE movie_keyword.movie_id = title.id`)
	if err != nil {
		t.Fatal(err)
	}
	mask := query.NewBitSet().Set(q.TableIndex(db.Schema.Table("title")))
	w := len(db.Schema.Table("title").Columns)
	wide := plan.Rows{Width: w, N: 1, Data: make([]int64, w)}
	leaf := plan.NewMatLeaf(&plan.Materialized{Tables: mask, Rows: wide})
	if _, err := Run(&Ctx{DB: db, Q: q}, leaf); err == nil || !strings.Contains(err.Error(), "width") {
		t.Fatalf("full-width rows accepted by a projected MatScan: %v", err)
	}
}
