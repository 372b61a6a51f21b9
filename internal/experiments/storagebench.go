package experiments

import (
	"fmt"
	"time"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// StorageBenchResult is the segment-scan microbenchmark recorded in
// BENCH_e2e.json: a clustered synthetic table scanned with selective
// predicates through the segmented path with zone-map pruning, with the
// result counts checked against a plain loop over the raw columns and the
// pruning counters captured. The skip rate is the number benchdiff gates: a
// change that silently stops pruning (bad zone maps, a disabled segment
// path) shows up here before it shows up as a wall-time regression on
// bigger data.
type StorageBenchResult struct {
	Rows        int `json:"rows"`
	SegmentRows int `json:"segment_rows"`
	Queries     int `json:"queries"`
	// ZoneScanSeconds is best-of-reps over the whole selective query set;
	// reported, not gated (microbenchmark walls are noisy across CI
	// machines — the skip rate is the stable signal).
	ZoneScanSeconds float64 `json:"zone_scan_seconds"`
	// Pruning counters from one instrumented pass over the query set.
	SegmentsTotal   int64   `json:"segments_total"`
	SegmentsSkipped int64   `json:"segments_skipped"`
	SkipRate        float64 `json:"skip_rate"`
	BytesDecoded    int64   `json:"bytes_decoded"`
	// Seal walls: FinishLoad over a fresh copy of the bench table, serial
	// and (when BuildWorkers > 1) fanned across BuildWorkers workers. The
	// serial/parallel layout parity lives in the load_bench block, which
	// benchdiff gates.
	BuildWorkers        int     `json:"build_workers,omitempty"`
	SealWallSeconds     float64 `json:"seal_wall_seconds"`
	ParallelSealSeconds float64 `json:"parallel_seal_wall_seconds,omitempty"`
}

// storageBenchDB builds the clustered synthetic workload: a table whose id
// column is the row number (frame-of-reference packed), grp is the segment
// number (constant per segment, dictionary encoded), and val is a scaled
// row number — so equality, range, and IN predicates each overlap only a
// few segments and the zone maps can prune the rest.
func storageBenchDB(segs int) (*storage.Database, []*query.Query) {
	db, t, st := storageBenchTable(segs)
	segRows := storage.SegmentRows()
	st.FinishLoad()

	pred := func(col string, op query.Op, operand int64, in ...int64) query.Predicate {
		return query.Predicate{Col: t.Column(col), Op: op, Operand: operand, InSet: in}
	}
	var qs []*query.Query
	add := func(preds ...query.Predicate) {
		qs = append(qs, query.New([]*catalog.Table{t}, nil, preds))
	}
	for g := 0; g < segs; g += segs / 4 {
		add(pred("grp", query.OpEQ, int64(g)))
	}
	add(pred("val", query.OpGE, int64(2*segRows)), pred("val", query.OpLT, int64(4*segRows)))
	add(pred("id", query.OpGE, int64((segs-2)*segRows)))
	add(pred("grp", query.OpIn, 0, 1, int64(segs-1)))
	add(pred("val", query.OpLE, int64(segRows)))
	return db, qs
}

// storageBenchTable builds (without sealing) the clustered bench table at
// the current segment granularity; LoadBench and the seal-wall measurement
// reuse it to time FinishLoad on fresh, identical data.
func storageBenchTable(segs int) (*storage.Database, *catalog.Table, *storage.Table) {
	segRows := storage.SegmentRows()
	n := segs * segRows
	s := catalog.NewSchema()
	t := s.AddTable("bench_store", catalog.PK("id"), catalog.Attr("grp"), catalog.Attr("val"))
	db := storage.NewDatabase(s)
	st := storage.NewTable(t, n)
	id, grp, val := st.ColByName("id"), st.ColByName("grp"), st.ColByName("val")
	for i := 0; i < n; i++ {
		id[i] = int64(i)
		grp[i] = int64(i / segRows)
		val[i] = int64(2 * i)
	}
	db.Tables[t.ID] = st
	return db, t, st
}

// rawCount counts the rows of q's single table passing every predicate with
// a plain loop over the raw columns — the storage benchmark's result check,
// sharing no code with the segment layer.
func rawCount(db *storage.Database, q *query.Query) int {
	t := db.Table(q.Tables[0])
	n := 0
	for r := 0; r < t.NumRows(); r++ {
		ok := true
		for _, p := range q.Preds {
			ok = ok && p.Eval(t.Cols[p.Col.Pos][r])
		}
		if ok {
			n++
		}
	}
	return n
}

// StorageBench measures the segmented scan path on the clustered synthetic
// table, plus the wall time of sealing it (serially and, when buildWorkers
// > 1, with parallel sealing). A scan count that differs from the raw-column
// loop fails the benchmark. Self-contained: it builds its own database at
// the production segment granularity, so it needs no Env.
func StorageBench(buildWorkers int) (*StorageBenchResult, error) {
	const segs, reps = 32, 5
	db, qs := storageBenchDB(segs)
	res := &StorageBenchResult{
		Rows: segs * storage.SegmentRows(), SegmentRows: storage.SegmentRows(),
		Queries: len(qs),
	}

	// runAll executes every query once (fresh single-leaf plans — plans
	// carry TrueCard stamps) and returns the wall time.
	runAll := func(reg *obs.Registry) (float64, error) {
		start := time.Now()
		for i, q := range qs {
			pl := plan.NewLeaf(plan.SeqScan, q.Tables[0], 0, q.Preds)
			c, err := exec.Run(&exec.Ctx{DB: db, Q: q, Metrics: reg}, pl)
			if err != nil {
				return 0, fmt.Errorf("storage bench query %d: %w", i, err)
			}
			if want := rawCount(db, q); c != want {
				return 0, fmt.Errorf("storage bench query %d: segment scan counted %d rows, raw columns %d", i, c, want)
			}
		}
		return time.Since(start).Seconds(), nil
	}
	for r := 0; r < reps; r++ {
		sec, err := runAll(nil)
		if err != nil {
			return nil, err
		}
		if res.ZoneScanSeconds == 0 || sec < res.ZoneScanSeconds {
			res.ZoneScanSeconds = sec
		}
	}

	// One instrumented pass for the pruning counters (kept out of the timed
	// reps so the registry's atomics don't color the walls, and so the
	// counters reflect exactly one execution of each query).
	reg := obs.NewRegistry()
	if _, err := runAll(reg); err != nil {
		return nil, err
	}
	res.SegmentsTotal = reg.Counter("storage.segments_total").Value()
	res.SegmentsSkipped = reg.Counter("storage.segments_skipped").Value()
	res.BytesDecoded = reg.Counter("storage.bytes_decoded").Value()
	if res.SegmentsTotal > 0 {
		res.SkipRate = float64(res.SegmentsSkipped) / float64(res.SegmentsTotal)
	}

	// Seal walls: each rep rebuilds the table data untimed (sealing mutates
	// the table) and times FinishLoad alone.
	sealBest := func(workers int) float64 {
		defer storage.SetBuildWorkers(workers)()
		best := 0.0
		for r := 0; r < reps; r++ {
			_, _, st := storageBenchTable(segs)
			start := time.Now()
			st.FinishLoad()
			sec := time.Since(start).Seconds()
			if best == 0 || sec < best {
				best = sec
			}
		}
		return best
	}
	res.SealWallSeconds = sealBest(1)
	if buildWorkers > 1 {
		res.BuildWorkers = buildWorkers
		res.ParallelSealSeconds = sealBest(buildWorkers)
	}
	return res, nil
}

// Render formats the benchmark for terminal output.
func (r *StorageBenchResult) Render() string {
	t := &Table{
		Title: fmt.Sprintf("Storage: zone-map segment scan (%d rows, %d/segment)",
			r.Rows, r.SegmentRows),
		Header: []string{"metric", "value"},
	}
	t.AddRow("selective queries", fmt.Sprint(r.Queries))
	t.AddRow("zone scan wall", FmtDur(r.ZoneScanSeconds))
	t.AddRow("segments scanned", fmt.Sprint(r.SegmentsTotal))
	t.AddRow("segments skipped", fmt.Sprintf("%d (%.1f%%)", r.SegmentsSkipped, r.SkipRate*100))
	t.AddRow("bytes decoded", fmt.Sprint(r.BytesDecoded))
	t.AddRow("seal wall (serial)", FmtDur(r.SealWallSeconds))
	if r.BuildWorkers > 1 {
		t.AddRow(fmt.Sprintf("seal wall (%d workers)", r.BuildWorkers), FmtDur(r.ParallelSealSeconds))
	}
	return t.String()
}
