package main

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"time"

	lpce "github.com/lpce-db/lpce"
)

// workload is one prepared benchmark workload. measure runs timed passes
// for about the given number of seconds (a first call warms up, untimed);
// with traced set it also records spans and reads the program's counters.
type workload interface {
	measure(seconds float64, traced bool) (*measured, error)
	setupParts() setupParts
	close()
}

// setups builds each workload; the time this takes is setup_s.
var setups = map[string]func(seed int64, sz sizes) (workload, error){
	"job_exec": func(seed int64, sz sizes) (workload, error) { return setupQueries("joblike", 0, seed, sz) },
	"deep_plan": func(seed int64, sz sizes) (workload, error) {
		return setupQueries("deep_plan", sz.DeepPlanWork, seed, sz)
	},
	"serve_short": setupServe,
	"ingest_scan": setupIngest,
}

// ledger sums the engine's T_P/T_I/T_R/T_E decomposition and its exact
// counts over the timed operations of a block.
type ledger struct {
	Plan, Infer, Reopt, Exec time.Duration
	EstimateCalls, Reopts    int64
	Work                     int64
}

func (l *ledger) add(r lpce.Result) {
	l.Plan += r.PlanTime
	l.Infer += r.InferTime
	l.Reopt += r.ReoptTime
	l.Exec += r.ExecTime
	l.EstimateCalls += int64(r.EstimateCalls)
	l.Reopts += int64(r.Reopts)
	l.Work += r.ExecWork
}

// measured is what one measuring block produced.
type measured struct {
	PassMS []float64 // wall time of each timed pass
	// OpMS holds the caller-observed latency of each timed operation, by the
	// name of the query it ran.
	OpMS map[string][]float64

	Attempted, Failed int
	FirstFailure      string // names the first wrong, failed or timed-out operation

	Ledger ledger
	// Layer holds the workload's own per-layer values; it stays empty for
	// layers the workload never enters.
	Layer map[string]float64
	Spans []span
}

func newMeasured() *measured {
	return &measured{OpMS: map[string][]float64{}, Layer: map[string]float64{}}
}

// opGeomean is the geometric mean over queries of each query's median
// latency: every query counts the same whatever its size, where pass_ms is
// decided by the heaviest. (A median over all operations would sit on the
// border between two queries' latencies and jump with either one's tail.)
func (m *measured) opGeomean() float64 {
	var logSum float64
	for _, lat := range m.OpMS {
		logSum += math.Log(median(lat))
	}
	return math.Exp(logSum / float64(len(m.OpMS)))
}

// allOps returns every timed operation's latency.
func (m *measured) allOps() []float64 {
	var all []float64
	for _, lat := range m.OpMS {
		all = append(all, lat...)
	}
	return all
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fail counts one failed operation and keeps the first one's description.
func (m *measured) fail(format string, args ...any) {
	m.Failed++
	if m.FirstFailure == "" {
		m.FirstFailure = fmt.Sprintf(format, args...)
	}
}

// checkResult counts one engine execution against its reference count.
func (m *measured) checkResult(name string, res lpce.Result, err error, want int) {
	m.Attempted++
	switch {
	case err != nil:
		m.fail("%s: %v", name, err)
	case res.TimedOut:
		m.fail("%s: timed out after %d work units", name, res.ExecWork)
	case res.Count != want:
		m.fail("%s: COUNT(*) = %d, reference %d", name, res.Count, want)
	}
}

// storageCounters reads the segment counters an observer's registry holds.
func storageCounters(ob *lpce.Observer) (total, skipped, decoded int64) {
	c := ob.Registry().Snapshot().Counters
	return c["storage.segments_total"], c["storage.segments_skipped"], c["storage.bytes_decoded"]
}

// traceParse times lpce.ParseSQL over the workload's statements, one root
// span each on a tracer of its own, and adds the spans and the mean
// (parse_us) to the traced block.
func (m *measured) traceParse(schema *lpce.Schema, qs []namedQuery) error {
	const reps = 5
	tr := newTracer(time.Now(), 2<<40) // ids clear of the block's own tracers
	var total time.Duration
	for r := 0; r < reps; r++ {
		for _, q := range qs {
			sp := tr.begin(-1, "ParseSQL "+q.Name, layerParse)
			t0 := time.Now()
			_, err := lpce.ParseSQL(schema, q.SQL)
			total += time.Since(t0)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("query %s: %w", q.Name, err)
			}
		}
	}
	m.Layer["parse_us"] = float64(total) / float64(time.Microsecond) / float64(reps*len(qs))
	m.Spans = append(m.Spans, tr.spans...)
	return nil
}

// reshuffle draws a new query order for the next pass. What ran before a
// query changes its time (cache state, a collection the previous query set
// off), so a fresh order per pass spreads that over all queries.
func reshuffle(rng *rand.Rand, qs []namedQuery) {
	rng.Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
}

// queryWorkload is job_exec and deep_plan: one caller runs a fixed query set
// through Engine.Execute with the LPCE-R stack on db_main, pass after pass.
type queryWorkload struct {
	env    *mainEnv
	eng    *lpce.Engine
	qs     []namedQuery
	refs   map[string]int
	rng    *rand.Rand // draws each pass's query order
	sz     sizes
	warmed bool
}

func setupQueries(file string, maxWork, seed int64, sz sizes) (workload, error) {
	env, err := buildMain(sz)
	if err != nil {
		return nil, err
	}
	qs, err := loadQueries(file, sz.QueryLimit, env.DB.Schema)
	if err != nil {
		return nil, err
	}
	refs, err := referenceCounts(env.DB, env.Hist, qs, sz.ExecBudget, maxWork)
	if err != nil {
		return nil, err
	}
	return &queryWorkload{env: env, eng: lpce.NewEngine(env.DB), qs: qs, refs: refs, rng: rand.New(rand.NewSource(seed)), sz: sz}, nil
}

func (w *queryWorkload) setupParts() setupParts { return w.env.Parts }
func (w *queryWorkload) close()                 {}

func (w *queryWorkload) measure(seconds float64, traced bool) (*measured, error) {
	m := newMeasured()
	cfg := w.env.lpcerConfig(w.sz.ExecBudget)
	if !w.warmed {
		w.pass(cfg, nil, m, false)
		w.warmed = true
	}
	var tr *tracer
	var ob *lpce.Observer
	if traced {
		tr = newTracer(time.Now(), 0)
		ob = lpce.NewObserver()
		cfg.Obs = ob
	}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(m.PassMS) < w.sz.MinPasses || time.Now().Before(deadline) {
		w.pass(cfg, tr, m, true)
	}
	if traced {
		total, skipped, decoded := storageCounters(ob)
		m.Layer["segments_skipped_ratio"] = ratio(float64(skipped), float64(total))
		m.Layer["bytes_decoded"] = float64(decoded) / float64(len(m.PassMS))
		m.Spans = tr.spans
		if err := m.traceParse(w.env.DB.Schema, w.qs); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// pass executes every query once. The pass's time is the sum of the Execute
// calls' wall times, so the benchmark's own checks are not in it.
func (w *queryWorkload) pass(cfg lpce.EngineConfig, tr *tracer, m *measured, timed bool) {
	reshuffle(w.rng, w.qs)
	runtime.GC() // every pass starts from the same heap; collections a pass sets off itself stay in its time
	var wall time.Duration
	for _, q := range w.qs {
		root := tr.begin(-1, "query "+q.Name, layerBench)
		ex := tr.begin(root, "Execute", layerEngine)
		t0 := time.Now()
		res, err := w.eng.Execute(q.Q, cfg)
		d := time.Since(t0)
		tr.end(ex)
		tr.ledger(ex, res)
		m.checkResult(q.Name, res, err, w.refs[q.Name])
		tr.end(root)
		wall += d
		if timed {
			m.OpMS[q.Name] = append(m.OpMS[q.Name], ms(d))
			m.Ledger.add(res)
		}
	}
	if timed {
		m.PassMS = append(m.PassMS, ms(wall))
	}
}

// ingestWorkload is ingest_scan: one caller alternates a write half (append
// a batch to cast_info, refresh statistics, rebuild the histogram estimator)
// with a read half (the 16-query scan mix) on db_wide.
type ingestWorkload struct {
	db      *lpce.Database
	eng     *lpce.Engine
	qs      []namedQuery
	rng     *rand.Rand // draws the appended rows
	nextID  int64      // movie_id the next appended row group gets
	sz      sizes
	parts   setupParts
	warmed  bool
	castCol struct{ movie, person, role, char int }
	// Observers of a traced block, one for the prunable queries and one for
	// the rest, so the skip ratio can be read for the prunable third alone.
	obsPrunable, obsOther *lpce.Observer
}

func setupIngest(seed int64, sz sizes) (workload, error) {
	w := &ingestWorkload{sz: sz, rng: rand.New(rand.NewSource(seed)), nextID: int64(sz.WideTitles)}
	t0 := time.Now()
	w.db = lpce.GenerateDatabase(lpce.DataConfig{Titles: sz.WideTitles, Seed: fixtureSeed})
	t1 := time.Now()
	lpce.NewHistogramEstimator(w.db)
	w.parts = setupParts{Datagen: t1.Sub(t0), Analyze: time.Since(t1)}
	w.eng = lpce.NewEngine(w.db)
	var err error
	if w.qs, err = loadQueries("ingest_scan", sz.QueryLimit, w.db.Schema); err != nil {
		return nil, err
	}
	meta := w.db.TableByName("cast_info").Meta
	w.castCol.movie = meta.Column("movie_id").Pos
	w.castCol.person = meta.Column("person_id").Pos
	w.castCol.role = meta.Column("role_id").Pos
	w.castCol.char = meta.Column("person_role_id").Pos
	return w, nil
}

func (w *ingestWorkload) setupParts() setupParts { return w.parts }
func (w *ingestWorkload) close()                 {}

// nextRows draws one append batch: cast lists of 1-8 rows for new titles
// whose ids continue past the loaded ones, so movie_id stays clustered the
// way the loader left it and every cycle sees the same table shape.
func (w *ingestWorkload) nextRows() [][]int64 {
	rows := make([][]int64, 0, w.sz.AppendRows)
	names, chars := int64(w.sz.WideTitles/2), int64(w.sz.WideTitles/3)
	for len(rows) < w.sz.AppendRows {
		cast := 1 + w.rng.Intn(8)
		for j := 0; j < cast && len(rows) < w.sz.AppendRows; j++ {
			row := make([]int64, 4)
			row[w.castCol.movie] = w.nextID
			row[w.castCol.person] = w.rng.Int63n(names)
			row[w.castCol.role] = int64(j)
			row[w.castCol.char] = w.rng.Int63n(chars)
			rows = append(rows, row)
		}
		w.nextID++
	}
	return rows
}

func (w *ingestWorkload) measure(seconds float64, traced bool) (*measured, error) {
	m := newMeasured()
	if !w.warmed {
		if err := w.cycle(nil, m, &ingestTimes{}, false); err != nil {
			return nil, err
		}
		w.warmed = true
	}
	var tr *tracer
	w.obsPrunable, w.obsOther = nil, nil
	if traced {
		tr = newTracer(time.Now(), 0)
		w.obsPrunable, w.obsOther = lpce.NewObserver(), lpce.NewObserver()
	}
	var it ingestTimes
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for len(m.PassMS) < w.sz.MinPasses || time.Now().Before(deadline) {
		if err := w.cycle(tr, m, &it, true); err != nil {
			return nil, err
		}
	}
	cycles := float64(len(m.PassMS))
	m.Layer["append_ms"] = ms(it.Append) / cycles
	m.Layer["reseal_ms"] = ms(it.Reseal) / cycles
	m.Layer["analyze_ms"] = ms(it.Analyze) / cycles
	m.Layer["first_scan_after_refresh_ms"] = ms(it.FirstScan) / cycles
	m.Layer["ingest_rows_per_s"] = cycles * float64(w.sz.AppendRows) / (it.Append + it.Reseal + it.Analyze).Seconds()
	if traced {
		total, skipped, decoded := storageCounters(w.obsPrunable)
		_, _, decodedOther := storageCounters(w.obsOther)
		m.Layer["segments_skipped_ratio"] = ratio(float64(skipped), float64(total))
		m.Layer["bytes_decoded"] = float64(decoded+decodedOther) / cycles
		m.Spans = tr.spans
		if err := m.traceParse(w.db.Schema, w.qs); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// ingestTimes sums the write half's steps over the timed cycles.
type ingestTimes struct {
	Append, Reseal, Analyze, FirstScan time.Duration
}

// cycle is one pass: the write half, then the scan mix checked against
// counts re-derived from the raw columns.
func (w *ingestWorkload) cycle(tr *tracer, m *measured, it *ingestTimes, timed bool) error {
	// The scans keep the file's order in every cycle: RefreshStats drops the
	// lazily built indexes, so the first query to touch each table pays for
	// the rebuild, and a drawn order would move that cost between queries.
	rows := w.nextRows()
	runtime.GC() // as in queryWorkload.pass
	root := tr.begin(-1, "cycle", layerBench)

	sp := tr.begin(root, "AppendRows", layerStorage)
	t0 := time.Now()
	lpce.AppendRows(w.db.TableByName("cast_info"), rows)
	t1 := time.Now()
	tr.end(sp)
	sp = tr.begin(root, "RefreshStats", layerStorage)
	lpce.RefreshStats(w.db)
	t2 := time.Now()
	tr.end(sp)
	sp = tr.begin(root, "NewHistogramEstimator", layerHistogram)
	hist := lpce.NewHistogramEstimator(w.db)
	t3 := time.Now()
	tr.end(sp)

	want := make([]int, len(w.qs))
	for i, q := range w.qs {
		n, err := rawCount(w.db, q.Q)
		if err != nil {
			return fmt.Errorf("query %s: %w", q.Name, err)
		}
		want[i] = n
	}

	wall := t3.Sub(t0)
	for i, q := range w.qs {
		cfg := lpce.EngineConfig{Estimator: hist, Budget: w.sz.ExecBudget, Obs: w.obsOther}
		if q.Name[0] == 'p' {
			cfg.Obs = w.obsPrunable
		}
		ex := tr.begin(root, "Execute "+q.Name, layerEngine)
		s0 := time.Now()
		res, err := w.eng.Execute(q.Q, cfg)
		d := time.Since(s0)
		tr.end(ex)
		tr.ledger(ex, res)
		m.checkResult(q.Name, res, err, want[i])
		wall += d
		if timed {
			m.OpMS[q.Name] = append(m.OpMS[q.Name], ms(d))
			m.Ledger.add(res)
			if i == 0 {
				it.FirstScan += d
			}
		}
	}
	tr.end(root)
	if timed {
		m.PassMS = append(m.PassMS, ms(wall))
		it.Append += t1.Sub(t0)
		it.Reseal += t2.Sub(t1)
		it.Analyze += t3.Sub(t2)
	}
	return nil
}
