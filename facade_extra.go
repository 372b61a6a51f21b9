package lpce

import (
	"io"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/experiments"
	"github.com/lpce-db/lpce/internal/maintain"
	"github.com/lpce-db/lpce/internal/modelio"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/sqlparse"
)

// SQL front end.

// ParseSQL compiles a COUNT(*) select-project-equijoin query from SQL text
// against the schema (the dialect of paper §3; see internal/sqlparse for
// the grammar).
func ParseSQL(schema *Schema, sql string) (*Query, error) {
	return sqlparse.Parse(schema, sql)
}

// Model persistence (self-describing files: architecture + weights).

// SaveModel writes a tree model to w.
func SaveModel(w io.Writer, m *TreeModel) error { return core.SaveTreeModel(w, m) }

// LoadModel reads a tree model written by SaveModel; enc must be the
// encoder the model was trained with.
func LoadModel(r io.Reader, enc *Encoder) (*TreeModel, error) { return core.LoadTreeModel(r, enc) }

// SaveRefiner writes a trained LPCE-R to w.
func SaveRefiner(w io.Writer, r *Refiner) error { return core.SaveRefiner(w, r) }

// LoadRefiner reads a refiner written by SaveRefiner; the encoder and
// database must match the training-time ones.
func LoadRefiner(r io.Reader, enc *Encoder, db *Database) (*Refiner, error) {
	return core.LoadRefiner(r, enc, db)
}

// Deployment maintenance (the paper's §3.2/§7.3 operational loop).

// DriftMonitor tracks live estimation quality against the training-time
// baseline and reports when re-training is warranted.
type DriftMonitor = maintain.Monitor

// NewDriftMonitor returns a monitor with the validation-time median
// q-error baseline, a drift factor, and a rolling window size.
func NewDriftMonitor(baselineMedianQ, factor float64, windowSize int) *DriftMonitor {
	return maintain.NewMonitor(baselineMedianQ, factor, windowSize)
}

// RefreshStats brings catalog and histogram statistics up to date after
// data updates (ANALYZE): tables appended to since their last seal are
// re-analyzed and re-sealed, recomputing the segment zone maps the appends
// invalidated; clean tables are left as they are.
func RefreshStats(db *Database) { maintain.RefreshStats(db) }

// AppendRows applies post-load DML to a table: sealed tables reject direct
// Table.AppendRows calls, so updates go through the maintenance path, which
// invalidates the affected segments and statistics and extends the table's
// built indexes. Follow a batch of appends with RefreshStats.
func AppendRows(t *StorageTable, rows [][]int64) { maintain.AppendRows(t, rows) }

// Concurrent workload execution.

// EstimateCache is a thread-safe sharded read-through cardinality-estimate
// cache keyed by query fingerprint + relation subset. Share one across
// workers to amortize model inference over a concurrent workload.
type EstimateCache = cardest.Cache

// NewEstimateCache wraps an estimator in an empty cache.
func NewEstimateCache(inner Estimator) *EstimateCache { return cardest.NewCache(inner) }

// ParallelRun is the outcome of a concurrent workload execution: per-query
// results aligned with the input, wall time, and cache counters.
type ParallelRun = experiments.ParallelRun

// ExecuteParallel plans and executes the queries across workers goroutines
// (GOMAXPROCS when workers <= 0, serial when 1) sharing cfg's estimator
// behind an estimate cache. Results are identical to a serial run: every
// estimator shipped with the repository is deterministic per (query,
// subset) regardless of call order.
func ExecuteParallel(db *Database, queries []*Query, cfg EngineConfig, workers int) (ParallelRun, error) {
	return experiments.RunParallelWorkload(db, queries, cfg, workers)
}

// Observability.

// Observer is the sink of the observability layer: per-operator runtime
// stats, re-optimization event traces, CE evaluation of every cardinality
// estimate, and a metrics registry. Set EngineConfig.Obs to enable it; one
// observer may be shared by any number of concurrent workers.
type Observer = obs.Observer

// NewObserver returns an empty observer.
func NewObserver() *Observer { return obs.NewObserver() }

// QueryTrace is one query's structured execution trace (per-operator stats
// per execution attempt, re-optimization events, phase times); available as
// Result.Trace when the engine ran with an observer.
type QueryTrace = obs.QueryTrace

// ObsReport is the aggregated, JSON-serializable view of everything an
// observer collected; built with Observer.Report().
type ObsReport = obs.Report

// MetricsRegistry interns named counters, gauges, and histograms. All
// operations are goroutine-safe and nil-safe.
type MetricsRegistry = obs.Registry

// NewEstimateCacheWithMetrics wraps an estimator in an empty cache whose
// hit/miss counters are interned in the registry, so they appear in the
// observer's report alongside the engine metrics.
func NewEstimateCacheWithMetrics(inner Estimator, reg *MetricsRegistry) *EstimateCache {
	return cardest.NewCacheWithMetrics(inner, reg)
}

// Robustness & graceful degradation.

// ResourceError is the typed failure of a query that exceeded one of its
// ResourceLimits ("materialized-rows" or "replans"); match with errors.As.
type ResourceError = exec.ResourceError

// ResourceLimits are per-query resource budgets; set EngineConfig.Limits.
// The zero value disables every limit.
type ResourceLimits = engine.Limits

// EstimatorGuard wraps any estimator with production guardrails: it
// recovers panics, clamps non-finite / non-positive / impossibly large
// estimates, flags latency-budget violations, and trips a circuit breaker
// to a fallback estimator after repeated faults.
type EstimatorGuard = cardest.Guard

// EstimatorGuardConfig configures an EstimatorGuard.
type EstimatorGuardConfig = cardest.GuardConfig

// NewEstimatorGuard wraps inner with the guardrails of cfg.
func NewEstimatorGuard(inner Estimator, cfg EstimatorGuardConfig) *EstimatorGuard {
	return cardest.NewGuard(inner, cfg)
}

// CrossProductBound returns the natural upper bound for cardinality
// estimates over db — the product of the base-table sizes of the estimated
// subset — for use as EstimatorGuardConfig.Bound.
func CrossProductBound(db *Database) func(*Query, BitSet) float64 {
	return cardest.CrossProductBound(db)
}

// Versioned model artifacts (cmd/lpce-train <-> cmd/lpce-bench).

// ModelSet bundles every SGD-trained model of one experiment environment
// into a versioned on-disk artifact directory. Loading validates the format
// version and the encoder's dimension and schema fingerprint, so artifacts
// cannot silently be applied to a database they were not trained on.
type ModelSet = modelio.Set

// SaveModelSet writes the set into dir (created if needed), one
// checksummed artifact file per model.
func SaveModelSet(s *ModelSet, dir string, enc *Encoder) error { return s.Save(dir, enc) }

// LoadModelSet reads a complete artifact directory written by SaveModelSet.
func LoadModelSet(dir string, enc *Encoder, db *Database) (*ModelSet, error) {
	return modelio.LoadSet(dir, enc, db)
}

// ExperimentOptions tune SetupExperimentsWith beyond scale and seed: the
// training worker count (weights are byte-identical for any value), an
// artifact directory to load models from instead of training, and a
// train-only mode that skips test-workload construction.
type ExperimentOptions = experiments.SetupOptions

// SetupExperimentsWith is SetupExperiments with explicit options.
func SetupExperimentsWith(scale ExperimentScale, seed int64, opts ExperimentOptions) (*ExperimentEnv, error) {
	return experiments.SetupWith(scale, seed, opts)
}
