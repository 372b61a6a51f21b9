package exec

import (
	"errors"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/datagen"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// Zone-map pruning must be byte-identical to scanning every row: it changes
// which rows are read, never which rows qualify, how much work is charged,
// or what any observer sees. These tests sweep the same randomized corpus
// as the reference equivalence suite with pruning engaged (segments shrunk
// so tiny fixtures split into many), compare against both the scalar
// reference and an unpruned scan — reached by running the same plan over
// an unsealed copy of the data — and pin the ≥50% skip rate on selective
// reference queries.

func TestSegPrune(t *testing.T) {
	col := &catalog.Column{}
	p := func(op query.Op, operand int64, in ...int64) query.Predicate {
		return query.Predicate{Col: col, Op: op, Operand: operand, InSet: in}
	}
	cases := []struct {
		name   string
		p      query.Predicate
		mn, mx int64
		want   bool
	}{
		{"eq-below", p(query.OpEQ, 9), 10, 20, true},
		{"eq-above", p(query.OpEQ, 21), 10, 20, true},
		{"eq-edge-lo", p(query.OpEQ, 10), 10, 20, false},
		{"eq-edge-hi", p(query.OpEQ, 20), 10, 20, false},
		{"ne-constant-match", p(query.OpNE, 10), 10, 10, true},
		{"ne-constant-other", p(query.OpNE, 11), 10, 10, false},
		{"ne-range", p(query.OpNE, 15), 10, 20, false},
		{"lt-at-min", p(query.OpLT, 10), 10, 20, true},
		{"lt-above-min", p(query.OpLT, 11), 10, 20, false},
		{"le-below-min", p(query.OpLE, 9), 10, 20, true},
		{"le-at-min", p(query.OpLE, 10), 10, 20, false},
		{"gt-at-max", p(query.OpGT, 20), 10, 20, true},
		{"gt-below-max", p(query.OpGT, 19), 10, 20, false},
		{"ge-above-max", p(query.OpGE, 21), 10, 20, true},
		{"ge-at-max", p(query.OpGE, 20), 10, 20, false},
		{"in-all-outside", p(query.OpIn, 0, 5, 25), 10, 20, true},
		{"in-one-inside", p(query.OpIn, 0, 5, 15), 10, 20, false},
		{"in-empty", p(query.OpIn, 0), 10, 20, true},
	}
	for _, tc := range cases {
		if got := segPrune(tc.p, tc.mn, tc.mx); got != tc.want {
			t.Errorf("%s: segPrune(%v, [%d,%d]) = %v, want %v", tc.name, tc.p, tc.mn, tc.mx, got, tc.want)
		}
	}
}

// segTinyDB generates a fresh tiny database sealed at a small segment
// granularity, so its tables split into many segments and the corpus
// queries exercise real pruning. A fresh instance per call: the shared
// testutil.TinyDB must keep its production-granularity segments.
func segTinyDB(t *testing.T) *storage.Database {
	t.Helper()
	defer storage.SetSegmentRows(256)()
	return datagen.Generate(datagen.Config{Titles: 300, Seed: 42})
}

// unsealedCopy returns a database holding copies of db's columns in tables
// that were never sealed: every scan over it reads every row, which pruning
// must be indistinguishable from.
func unsealedCopy(db *storage.Database) *storage.Database {
	out := storage.NewDatabase(db.Schema)
	for id, t := range db.Tables {
		c := storage.NewTable(t.Meta, 0)
		for i, col := range t.Cols {
			c.Cols[i] = slices.Clone(col)
		}
		out.Tables[id] = c
	}
	return out
}

// TestZoneMapScanEquivalence compares, over the plan-variant corpora of two
// generator seeds, the executor pruning by zone maps against the scalar
// reference and against an unpruned scan. Counts, checkpoint sequences
// (rows in order), work totals, materialization totals, and TrueCard stamps
// must all be identical.
func TestZoneMapScanEquivalence(t *testing.T) {
	db := segTinyDB(t)
	raw := unsealedCopy(db)
	reg, regR := obs.NewRegistry(), obs.NewRegistry()
	check := func(q *query.Query, p *plan.Node, variant string) {
		name := q.SQL() + "/" + variant
		pr, pz := p.Clone(), p.Clone()
		rcR, rcZ := &ckptRecorder{}, &ckptRecorder{t: t, name: name, ref: newRefEval(db, q)}
		ctxR := &Ctx{DB: raw, Q: q, Controller: rcR, Metrics: regR}
		ctxZ := &Ctx{DB: db, Q: q, Controller: rcZ, Metrics: reg}
		cR, errR := Run(ctxR, pr)
		cZ, errZ := Run(ctxZ, pz)
		if errR != nil || errZ != nil {
			t.Fatalf("%s: errs raw=%v zone=%v", name, errR, errZ)
		}
		if cR != cZ || cZ != len(rcZ.ref.projected(q.AllTablesMask())) {
			t.Fatalf("%s: counts raw=%d zone=%d reference=%d", name, cR, cZ, len(rcZ.ref.projected(q.AllTablesMask())))
		}
		if ctxR.Work() != ctxZ.Work() || ctxR.MatRows() != ctxZ.MatRows() {
			t.Fatalf("%s: work raw=%d zone=%d, matRows raw=%d zone=%d", name, ctxR.Work(), ctxZ.Work(), ctxR.MatRows(), ctxZ.MatRows())
		}
		if !slices.Equal(rcR.events, rcZ.events) {
			t.Fatalf("%s: checkpoints raw=%+v zone=%+v", name, rcR.events, rcZ.events)
		}
		if !maps.Equal(trueCards(pr), trueCards(pz)) {
			t.Fatalf("%s: TrueCards raw=%v zone=%v", name, trueCards(pr), trueCards(pz))
		}
	}
	equivCorpus(t, db, 51, 10, check)
	equivCorpus(t, db, 52, 6, check)
	if reg.Counter("storage.segments_total").Value() == 0 {
		t.Fatal("corpus never engaged the segment scan path")
	}
	if regR.Counter("storage.segments_total").Value() != 0 {
		t.Fatal("the unsealed copy engaged the segment scan path")
	}
}

// zoneRefDB builds the selective-predicate reference fixture: 64k rows in
// 16 production-size segments, with a clustered group column (each segment
// holding one group) and a sorted value column, so equality and range
// predicates each disprove most zone maps.
func zoneRefDB(t *testing.T) (*storage.Database, *catalog.Table) {
	t.Helper()
	const n = 16 * storage.DefaultSegmentRows
	s := catalog.NewSchema()
	meta := s.AddTable("zone_ref", catalog.PK("id"), catalog.Attr("grp"), catalog.Attr("val"))
	db := storage.NewDatabase(s)
	tbl := storage.NewTable(meta, n)
	for i := 0; i < n; i++ {
		tbl.ColByName("id")[i] = int64(i)
		tbl.ColByName("grp")[i] = int64(i / storage.DefaultSegmentRows)
		tbl.ColByName("val")[i] = int64(2 * i)
	}
	db.Tables[meta.ID] = tbl
	tbl.FinishLoad()
	return db, meta
}

// TestZoneMapSkipRateReference pins the acceptance criterion: on selective
// reference predicates the scan skips at least 50% of segments, with
// results byte-identical to an unpruned scan.
func TestZoneMapSkipRateReference(t *testing.T) {
	db, meta := zoneRefDB(t)
	raw := unsealedCopy(db)
	preds := map[string][]query.Predicate{
		"grp-eq":    {{Col: meta.Column("grp"), Op: query.OpEQ, Operand: 11}},
		"val-range": {{Col: meta.Column("val"), Op: query.OpLT, Operand: 9000}},
		"grp-in":    {{Col: meta.Column("grp"), Op: query.OpIn, InSet: []int64{2, 9}}},
		"id-ge":     {{Col: meta.Column("id"), Op: query.OpGE, Operand: int64(14 * storage.DefaultSegmentRows)}},
	}
	for name, ps := range preds {
		q := query.New([]*catalog.Table{meta}, nil, ps)
		mkPlan := func() *plan.Node { return plan.NewLeaf(plan.SeqScan, meta, 0, ps) }

		rawCtx := &Ctx{DB: raw, Q: q, Controller: NopController{}}
		cRaw, err := Run(rawCtx, mkPlan())
		if err != nil {
			t.Fatalf("%s: unsealed copy: %v", name, err)
		}

		reg := obs.NewRegistry()
		zCtx := &Ctx{DB: db, Q: q, Metrics: reg, Controller: NopController{}}
		cZ, err := Run(zCtx, mkPlan())
		if err != nil {
			t.Fatalf("%s: zone path: %v", name, err)
		}
		if cZ != cRaw {
			t.Fatalf("%s: zone path count %d, raw %d", name, cZ, cRaw)
		}
		if rawCtx.Work() != zCtx.Work() {
			t.Fatalf("%s: zone path work %d, raw %d", name, zCtx.Work(), rawCtx.Work())
		}
		total := reg.Counter("storage.segments_total").Value()
		skipped := reg.Counter("storage.segments_skipped").Value()
		if total != 16 {
			t.Fatalf("%s: segments_total = %d, want 16", name, total)
		}
		if skipped*2 < total {
			t.Fatalf("%s: skipped %d of %d segments, want >= 50%%", name, skipped, total)
		}
	}
}

// TestZoneMapUnsealedFallback covers the DML window: after a maintenance
// append the table is unsealed, the segment path must disengage (stale
// zone maps would be wrong), and the scan still returns correct results.
func TestZoneMapUnsealedFallback(t *testing.T) {
	db, meta := zoneRefDB(t)
	tbl := db.Tables[meta.ID]
	preds := []query.Predicate{{Col: meta.Column("grp"), Op: query.OpEQ, Operand: 16}}
	q := query.New([]*catalog.Table{meta}, nil, preds)

	reg := obs.NewRegistry()
	ctx := &Ctx{DB: db, Q: q, Metrics: reg, Controller: NopController{}}
	c0, err := Run(ctx, plan.NewLeaf(plan.SeqScan, meta, 0, preds))
	if err != nil {
		t.Fatal(err)
	}
	if c0 != 0 {
		t.Fatalf("pre-append count = %d, want 0", c0)
	}
	if v := reg.Counter("storage.segments_skipped").Value(); v != 16 {
		t.Fatalf("pre-append skipped = %d, want 16 (grp 16 nowhere)", v)
	}

	// Rows with grp=16 arrive via the maintenance path; the unsealed table
	// must prune nothing (segments gone) and find them.
	rows := make([][]int64, 100)
	for i := range rows {
		rows[i] = []int64{int64(tbl.NumRows() + i), 16, 0}
	}
	tbl.AppendRows(rows)
	reg2 := obs.NewRegistry()
	ctx2 := &Ctx{DB: db, Q: q, Metrics: reg2, Controller: NopController{}}
	c1, err := Run(ctx2, plan.NewLeaf(plan.SeqScan, meta, 0, preds))
	if err != nil {
		t.Fatal(err)
	}
	if c1 != 100 {
		t.Fatalf("post-append count = %d, want 100", c1)
	}
	if v := reg2.Counter("storage.segments_total").Value(); v != 0 {
		t.Fatalf("unsealed scan recorded %d segments; segment path should disengage", v)
	}

	// Resealing rebuilds the dirtied tail; the zone path re-engages and
	// still sees the new rows.
	tbl.FinishLoad()
	reg3 := obs.NewRegistry()
	ctx3 := &Ctx{DB: db, Q: q, Metrics: reg3, Controller: NopController{}}
	c2, err := Run(ctx3, plan.NewLeaf(plan.SeqScan, meta, 0, preds))
	if err != nil {
		t.Fatal(err)
	}
	if c2 != 100 {
		t.Fatalf("post-reseal count = %d, want 100", c2)
	}
	if v := reg3.Counter("storage.segments_total").Value(); v != 17 {
		t.Fatalf("post-reseal segments_total = %d, want 17", v)
	}
}

// creditDB builds an index-nested-loop fixture shaped like a person ⋈
// cast-credit join. person (id, pad) has people rows. credit (pid, mid,
// role) has credits rows: pid draws uniformly from twice the person ids, so
// about half the probes find no key; mid is clustered (ascending, movies
// distinct values), so a predicate on a few mids disproves the zone maps of
// most segments; role is uniform over 8 values and prunes no segment.
// award (pid) holds one row per person id, to put a checkpoint above the
// join. The tables are sealed at the current segment granularity.
func creditDB(people, credits, movies int) (*storage.Database, []*catalog.Table) {
	s := catalog.NewSchema()
	person := s.AddTable("person", catalog.PK("id"), catalog.Attr("pad"))
	credit := s.AddTable("credit", catalog.FK("pid", person.Column("id")), catalog.Attr("mid"), catalog.Attr("role"))
	award := s.AddTable("award", catalog.FK("pid", person.Column("id")))
	db := storage.NewDatabase(s)
	rng := rand.New(rand.NewSource(7))
	pt := storage.NewTable(person, people)
	at := storage.NewTable(award, people)
	for i := 0; i < people; i++ {
		pt.ColByName("id")[i] = int64(i)
		pt.ColByName("pad")[i] = int64(3 * i)
		at.ColByName("pid")[i] = int64(i)
	}
	ct := storage.NewTable(credit, credits)
	for i := 0; i < credits; i++ {
		ct.ColByName("pid")[i] = rng.Int63n(int64(2 * people))
		ct.ColByName("mid")[i] = int64(i * movies / credits)
		ct.ColByName("role")[i] = rng.Int63n(8)
	}
	for _, t := range []*storage.Table{pt, ct, at} {
		db.Tables[t.Meta.ID] = t
		t.FinishLoad()
	}
	return db, []*catalog.Table{person, credit, award}
}

// creditQuery is person ⋈ credit, with award joined on person.id when
// withAward is set; preds apply to credit.
func creditQuery(tabs []*catalog.Table, preds []query.Predicate, withAward bool) *query.Query {
	person, credit, award := tabs[0], tabs[1], tabs[2]
	joins := []query.Join{{Left: credit.Column("pid"), Right: person.Column("id")}}
	if !withAward {
		return query.New([]*catalog.Table{person, credit}, joins, preds)
	}
	joins = append(joins, query.Join{Left: award.Column("pid"), Right: person.Column("id")})
	return query.New([]*catalog.Table{person, credit, award}, joins, preds)
}

// creditPlan is person probing credit's pid index through an index nested
// loop; with award in q, that join is the materialized outer of a second
// index nested loop probing award.
func creditPlan(q *query.Query) *plan.Node {
	leaf := func(i int) *plan.Node { return plan.NewLeaf(plan.SeqScan, q.Tables[i], i, q.PredsOn(q.Tables[i])) }
	p := plan.NewJoin(plan.NestLoopJoin, leaf(0), leaf(1), q.JoinsBetween(query.NewBitSet().Set(0), query.NewBitSet().Set(1)))
	if len(q.Tables) == 3 {
		p = plan.NewJoin(plan.NestLoopJoin, p, leaf(2), q.JoinsBetween(p.Tables, query.NewBitSet().Set(2)))
	}
	return p
}

// TestZoneMapIndexNLJoinEquivalence: an index nested loop whose inner table
// is sealed rejects the key matches in zone-map-pruned segments without
// reading them, and is otherwise indistinguishable from the same plan over
// an unsealed copy — count, TrueCards, checkpoint rows, Work(), and the
// point and checkpoints at which a work budget below the full run trips —
// and from the scalar reference. Each case states whether its predicates
// prune, and the operator's zone-map view must agree, so a pruning case
// cannot pass by pruning nothing.
func TestZoneMapIndexNLJoinEquivalence(t *testing.T) {
	restore := storage.SetSegmentRows(64)
	db, tabs := creditDB(300, 6000, 100)
	restore()
	raw := unsealedCopy(db)
	credit := tabs[1]
	mid, role := credit.Column("mid"), credit.Column("role")
	cases := []struct {
		name  string
		preds []query.Predicate
		prune bool
	}{
		{"range", []query.Predicate{{Col: mid, Op: query.OpGE, Operand: 40}, {Col: mid, Op: query.OpLT, Operand: 43}}, true},
		{"eq", []query.Predicate{{Col: mid, Op: query.OpEQ, Operand: 17}}, true},
		{"in-repeated", []query.Predicate{{Col: mid, Op: query.OpIn, InSet: []int64{5, 5, 80, 5}}}, true},
		{"range-and-role", []query.Predicate{{Col: mid, Op: query.OpLE, Operand: 9}, {Col: role, Op: query.OpEQ, Operand: 3}}, true},
		{"lt-min", []query.Predicate{{Col: mid, Op: query.OpLT, Operand: math.MinInt64}}, true},
		{"gt-max", []query.Predicate{{Col: mid, Op: query.OpGT, Operand: math.MaxInt64}}, true},
		{"ge-min", []query.Predicate{{Col: mid, Op: query.OpGE, Operand: math.MinInt64}}, false},
		{"le-max", []query.Predicate{{Col: mid, Op: query.OpLE, Operand: math.MaxInt64}}, false},
		{"role", []query.Predicate{{Col: role, Op: query.OpEQ, Operand: 3}}, false},
		{"none", nil, false},
	}
	for _, tc := range cases {
		for _, withAward := range []bool{false, true} {
			q := creditQuery(tabs, tc.preds, withAward)
			name := fmt.Sprintf("%s/%d tables", tc.name, len(q.Tables))
			ref := newRefEval(db, q)

			// the zone-map view the inner join's Open built
			ctx := &Ctx{DB: db, Q: q}
			op, err := Build(ctx, creditPlan(q))
			if err != nil {
				t.Fatal(err)
			}
			if err := op.Open(ctx); err != nil {
				t.Fatal(err)
			}
			j := op.(*batchNLJoin)
			if withAward {
				j = j.left.(*batchNLJoin)
			}
			if j.idxTable == nil || (j.zs != nil) != tc.prune {
				t.Fatalf("%s: index path %v, pruning engaged %v, want %v", name, j.idxTable != nil, j.zs != nil, tc.prune)
			}
			op.Close()

			// count, checkpoint rows and TrueCards against the reference
			zCtx, zEvents := checkAgainstReference(t, db, q, creditPlan(q), name, ref)
			rCtx, rEvents := checkAgainstReference(t, raw, q, creditPlan(q), "unsealed "+name, ref)
			if zCtx.Work() != rCtx.Work() || !slices.Equal(zEvents, rEvents) {
				t.Fatalf("%s: sealed work %d checkpoints %v, unsealed work %d checkpoints %v",
					name, zCtx.Work(), zEvents, rCtx.Work(), rEvents)
			}

			total := zCtx.Work()
			for _, budget := range []int64{total / 3, total - 1} {
				wz, ez, errZ := budgeted(db, q, budget)
				wr, er, errR := budgeted(raw, q, budget)
				if !errors.Is(errZ, ErrBudget) || !errors.Is(errR, ErrBudget) {
					t.Fatalf("%s budget %d of %d: sealed %v, unsealed %v; want ErrBudget", name, budget, total, errZ, errR)
				}
				if wz != wr || !slices.Equal(ez, er) || !isPrefix(ez, zEvents) {
					t.Fatalf("%s budget %d: sealed tripped at %d after %v, unsealed at %d after %v", name, budget, wz, ez, wr, er)
				}
			}
		}
	}
}

// budgeted runs creditPlan(q) on db under a work budget and returns the
// work at which it stopped, its checkpoints, and its error.
func budgeted(db *storage.Database, q *query.Query, budget int64) (int64, []ckptEvent, error) {
	rc := &ckptRecorder{}
	ctx := &Ctx{DB: db, Q: q, Controller: rc, Budget: budget}
	_, err := Run(ctx, creditPlan(q))
	return ctx.Work(), rc.events, err
}
