package lpce

import (
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
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

// AppendRows applies post-load DML to a table: it unseals the table,
// invalidates the affected segments and statistics, and extends the
// table's built indexes. Follow a batch of appends with RefreshStats.
func AppendRows(t *StorageTable, rows [][]int64) { t.AppendRows(rows) }

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

// Robustness & graceful degradation.

// ResourceError is the typed failure of a query that exceeded a resource
// budget: its ResourceLimits ("materialized-rows") or the rows one hash
// build can index ("hash-build-rows"); match with errors.As.
type ResourceError = exec.ResourceError

// ResourceLimits are per-query resource budgets; set EngineConfig.Limits.
// The zero value disables every limit. Re-optimizations per query are
// bounded by ReoptPolicy.MaxReopts instead.
type ResourceLimits = engine.Limits

// PanicError is the typed failure of a query during which the estimator,
// the refiner or the executor panicked; match with errors.As. The engine
// recovers the panic, so only that query fails.
type PanicError = engine.PanicError

// Versioned model sets (cmd/lpce-train <-> -models-in).

// ModelSet bundles every SGD-trained model of one experiment environment
// into one versioned, checksummed file in a model directory. Loading
// validates the format version and the encoder's dimension and schema
// fingerprint, which covers the column statistics, so a set cannot
// silently be applied to a database it was not trained on.
type ModelSet = modelio.Set

// SaveModelSet writes the set into dir (created if needed) as one file.
func SaveModelSet(s *ModelSet, dir string, enc *Encoder) error { return s.Save(dir, enc) }

// LoadModelSet reads the model set SaveModelSet wrote in dir.
func LoadModelSet(dir string, enc *Encoder, db *Database) (*ModelSet, error) {
	return modelio.LoadSet(dir, enc, db)
}
