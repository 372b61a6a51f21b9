package experiments

import (
	"fmt"
	"time"

	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/joblike"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
)

// ExecBenchResult is the executor benchmark recorded in BENCH_e2e.json.
// Two measurements: a synthetic hash-join probe hot path (the workload the
// vectorized executor targets), and the environment's JOB-like suite
// executed end to end — both serially and, when ExecWorkers > 1, with
// morsel-driven parallelism, with the result counts compared.
type ExecBenchResult struct {
	// Hot path: probe ProbeRows rows against a build side of BuildRows.
	BuildRows         int     `json:"build_rows"`
	ProbeRows         int     `json:"probe_rows"`
	BatchProbeSeconds float64 `json:"batch_probe_seconds"`

	// ExecWorkers is the morsel-parallelism worker count the parallel
	// measurements ran with; 0 when the parallel pass was skipped. The
	// parallel numbers ride the same probe hot path and suite with
	// Ctx.ExecWorkers set, and their counts fold into CountsIdentical.
	// Wall-clock gains track available cores: on a single-core host the
	// parallel wall is expected to roughly match the serial wall.
	ExecWorkers          int     `json:"exec_workers,omitempty"`
	ParallelProbeSeconds float64 `json:"parallel_probe_seconds,omitempty"`
	// ParallelSpeedup is serial/parallel time on the probe hot path,
	// isolating what the exchange adds.
	ParallelSpeedup float64 `json:"parallel_speedup,omitempty"`

	// Build wall: the vecTable build phase alone (drain and probe excluded)
	// over BuildBenchRows synthetic rows, serial vs ExecWorkers. The
	// serial/parallel layout parity and the gated comparison live in the
	// load_bench block; these fields localize a build-side regression when
	// the probe walls move.
	BuildBenchRows           int     `json:"build_bench_rows"`
	BuildWallSeconds         float64 `json:"build_wall_seconds"`
	ParallelBuildWallSeconds float64 `json:"parallel_build_wall_seconds,omitempty"`

	// Suite: executor wall (T_E only) across the JOB-like queries.
	SuiteQueries         int     `json:"suite_queries"`
	SuiteBatchSeconds    float64 `json:"suite_batch_exec_seconds"`
	SuiteParallelSeconds float64 `json:"suite_parallel_exec_seconds,omitempty"`
	SuiteParallelSpeedup float64 `json:"suite_parallel_speedup,omitempty"`
	// CountsIdentical asserts the morsel-parallel run, when enabled,
	// returned the serial run's COUNT(*) for every suite query and for the
	// probe hot path.
	CountsIdentical bool `json:"counts_identical"`
}

// execBenchDB builds the synthetic probe workload: a build table of
// distinct keys and a probe table hitting them round-robin.
func execBenchDB(buildRows, probeRows int) (*storage.Database, *query.Query) {
	s := catalog.NewSchema()
	b := s.AddTable("bench_build", catalog.PK("id"), catalog.Attr("pad"))
	p := s.AddTable("bench_probe", catalog.FK("bid", b.Column("id")), catalog.Attr("f"))

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

// ExecBench measures the executor on the probe hot path and the JOB-like
// suite, and — when execWorkers > 1 — the morsel-parallel path against the
// serial one. The hot-path numbers are best-of-reps to shed scheduler
// noise; the suite numbers are single-pass sums of executor wall time under
// the PostgreSQL (histogram) configuration.
func ExecBench(e *Env, execWorkers int) (*ExecBenchResult, error) {
	const buildRows, probeRows, reps = 4096, 1 << 16, 5
	res := &ExecBenchResult{BuildRows: buildRows, ProbeRows: probeRows, CountsIdentical: true}
	if execWorkers > 1 {
		res.ExecWorkers = execWorkers
	}

	db, q := execBenchDB(buildRows, probeRows)
	best := func(workers int) (float64, int, error) {
		bestSec := 0.0
		count := 0
		for r := 0; r < reps; r++ {
			pl := planOnly(q)
			ctx := &exec.Ctx{DB: db, Q: q, ExecWorkers: workers}
			start := time.Now()
			c, err := exec.Run(ctx, pl)
			sec := time.Since(start).Seconds()
			if err != nil {
				return 0, 0, err
			}
			if bestSec == 0 || sec < bestSec {
				bestSec = sec
			}
			count = c
		}
		return bestSec, count, nil
	}
	batchSec, batchCount, err := best(1)
	if err != nil {
		return nil, err
	}
	res.BatchProbeSeconds = batchSec
	if res.ExecWorkers > 1 {
		parSec, parCount, err := best(execWorkers)
		if err != nil {
			return nil, err
		}
		if parCount != batchCount {
			res.CountsIdentical = false
		}
		res.ParallelProbeSeconds = parSec
		if parSec > 0 {
			res.ParallelSpeedup = batchSec / parSec
		}
	}

	// Build wall: the hash-table build phase in isolation, at a row count
	// that clears the parallel path's morsel cutoff.
	const buildBenchRows, buildKeySpace = 1 << 16, 1 << 12
	res.BuildBenchRows = buildBenchRows
	buildSerial, buildPar, _ := exec.HashBuildBench(buildBenchRows, buildKeySpace, execWorkers, reps)
	res.BuildWallSeconds = buildSerial
	if res.ExecWorkers > 1 {
		res.ParallelBuildWallSeconds = buildPar
	}

	// Suite: the JOB-like queries end to end, summing executor wall only,
	// with the parallel run's result counts cross-checked.
	queries, err := joblike.Queries(e.DB.Schema)
	if err != nil {
		return nil, err
	}
	eng := engine.New(e.DB)
	counts := make(map[string]int)
	suite := func(workers int) (float64, error) {
		cfg := engine.Config{Estimator: e.Histogram, Budget: e.P.budget, ExecWorkers: workers}
		var wall time.Duration
		for _, name := range joblike.Names() {
			r, err := eng.Execute(queries[name], cfg)
			if err != nil {
				return 0, fmt.Errorf("execbench %s: %w", name, err)
			}
			wall += r.ExecTime
			if workers <= 1 {
				counts[name] = r.Count
			} else if counts[name] != r.Count {
				res.CountsIdentical = false
			}
		}
		return wall.Seconds(), nil
	}
	if res.SuiteBatchSeconds, err = suite(1); err != nil {
		return nil, err
	}
	if res.ExecWorkers > 1 {
		if res.SuiteParallelSeconds, err = suite(execWorkers); err != nil {
			return nil, err
		}
		if res.SuiteParallelSeconds > 0 {
			res.SuiteParallelSpeedup = res.SuiteBatchSeconds / res.SuiteParallelSeconds
		}
	}
	res.SuiteQueries = len(joblike.Names())
	return res, nil
}

// planOnly rebuilds the probe-outer hash-join plan for one measurement run
// (plans carry TrueCard stamps, so each run gets a fresh tree).
func planOnly(q *query.Query) *plan.Node {
	probe := plan.NewLeaf(plan.SeqScan, q.Tables[1], 1, nil)
	build := plan.NewLeaf(plan.SeqScan, q.Tables[0], 0, nil)
	return plan.NewJoin(plan.HashJoin, probe, build, q.Joins)
}

// Render formats the benchmark for terminal output.
func (r *ExecBenchResult) Render() string {
	t := &Table{
		Title: fmt.Sprintf("Executor (probe %d rows x build %d, counts identical: %v)",
			r.ProbeRows, r.BuildRows, r.CountsIdentical),
		Header: []string{"workload", "serial", "parallel", "speedup"},
	}
	if r.ExecWorkers > 1 {
		t.Title += fmt.Sprintf(", morsel-parallel at %d workers", r.ExecWorkers)
	}
	speedup := func(serial, parallel float64) string {
		if parallel <= 0 {
			return ""
		}
		return fmt.Sprintf("%.2fx", serial/parallel)
	}
	dur := func(sec float64) string {
		if sec <= 0 {
			return ""
		}
		return FmtDur(sec)
	}
	t.AddRow("hash-join probe", FmtDur(r.BatchProbeSeconds), dur(r.ParallelProbeSeconds),
		speedup(r.BatchProbeSeconds, r.ParallelProbeSeconds))
	t.AddRow(fmt.Sprintf("JOB-like suite T_E (%d queries)", r.SuiteQueries),
		FmtDur(r.SuiteBatchSeconds), dur(r.SuiteParallelSeconds),
		speedup(r.SuiteBatchSeconds, r.SuiteParallelSeconds))
	t.AddRow(fmt.Sprintf("hash build wall (%d rows)", r.BuildBenchRows),
		FmtDur(r.BuildWallSeconds), dur(r.ParallelBuildWallSeconds),
		speedup(r.BuildWallSeconds, r.ParallelBuildWallSeconds))
	return t.String()
}
