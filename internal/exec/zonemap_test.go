package exec

import (
	"maps"
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
	tbl.MaintenanceAppend(rows)
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
