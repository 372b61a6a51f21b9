// Package lpce is the public API of the LPCE reproduction: a learning-based
// progressive cardinality estimator (SIGMOD 2023) together with the complete
// relational engine substrate it runs in — synthetic IMDB-like data
// generation, a dynamic-programming query optimizer, a pipelined executor
// with re-optimization checkpoints, and every baseline estimator the paper
// evaluates against.
//
// # Quick start
//
//	db := lpce.GenerateDatabase(lpce.DataConfig{Titles: 2000, Seed: 1})
//	gen := lpce.NewWorkloadGenerator(db, 2)
//
//	// collect training plans with true per-operator cardinalities
//	samples, _ := lpce.CollectSamples(db, lpce.NewHistogramEstimator(db),
//		gen.QueriesRange(300, 3, 6), 100_000_000)
//
//	enc := lpce.NewEncoder(db.Schema)
//	logMax := lpce.MaxLogCard(samples)
//	nw := lpce.TrainConfig{NodeWise: true} // false trains the LPCE-Q ablation
//	model := lpce.TrainLPCEI(lpce.LPCEIConfig{Teacher: nw, Student: nw}, enc, samples, logMax)
//	refiner := lpce.TrainRefiner(lpce.RefinerConfig{Base: nw}, enc, db, samples, logMax)
//
//	// execute end to end with progressive re-optimization
//	eng := lpce.NewEngine(db)
//	res, err := eng.Execute(gen.Query(8), lpce.EngineConfig{
//		Estimator: lpce.NewTreeEstimator("lpce-i", model.Model, enc),
//		Refiner:   refiner,
//	})
//
// The subpackage layout mirrors the paper: the initial estimation model
// LPCE-I (§4) and refinement model LPCE-R (§5) live behind TrainLPCEI and
// TrainRefiner; the engine integration (§6) behind Engine; and the full
// evaluation (§7) behind RunExperiments.
package lpce

import (
	"io"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/catalog"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/datagen"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/experiments"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/treenn"
	"github.com/lpce-db/lpce/internal/workload"
)

// Data and schema.
type (
	// DataConfig sizes the synthetic IMDB-like database.
	DataConfig = datagen.Config
	// Database is an in-memory column store plus its schema.
	Database = storage.Database
	// StorageTable is one relation's columnar data inside a Database.
	StorageTable = storage.Table
	// Query is a COUNT(*) select-project-equijoin query.
	Query = query.Query
	// Predicate is one filter condition.
	Predicate = query.Predicate
	// Join is one equi-join condition.
	Join = query.Join
	// BitSet addresses subsets of a query's relations.
	BitSet = query.BitSet
)

// GenerateDatabase builds the synthetic database deterministically.
func GenerateDatabase(cfg DataConfig) *Database { return datagen.Generate(cfg) }

// NewWorkloadGenerator returns a deterministic random-query generator over
// the database's join graph (the paper's §7.1 workload recipe).
func NewWorkloadGenerator(db *Database, seed int64) *workload.Generator {
	return workload.NewGenerator(db, seed)
}

// Estimation.
type (
	// Estimator estimates the result cardinality of joining a relation
	// subset; every estimator in the repository implements it.
	Estimator = cardest.Estimator
	// Encoder featurizes plan nodes (paper §4.1).
	Encoder = encode.Encoder
	// Sample is one training example: a plan with per-node true
	// cardinalities.
	Sample = core.Sample
	// TrainConfig controls training of one tree model.
	TrainConfig = core.TrainConfig
	// LPCEIConfig assembles the LPCE-I pipeline (teacher + distillation).
	LPCEIConfig = core.LPCEIConfig
	// LPCEI is the trained initial estimation model.
	LPCEI = core.LPCEI
	// RefinerConfig controls LPCE-R training.
	RefinerConfig = core.RefinerConfig
	// Refiner is the trained progressive refinement model.
	Refiner = core.Refiner
	// TreeEstimator adapts a tree model to the Estimator interface.
	TreeEstimator = core.TreeEstimator
	// TreeModel is the SRU/LSTM tree backbone of Figure 6.
	TreeModel = treenn.TreeModel
)

// Schema aliases the catalog schema (tables, columns, join graph).
type Schema = catalog.Schema

// NewEncoder builds the feature encoder for a schema.
func NewEncoder(s *Schema) *Encoder { return encode.NewEncoder(s) }

// NewHistogramEstimator returns the PostgreSQL-style statistics baseline.
func NewHistogramEstimator(db *Database) Estimator { return histogram.NewEstimator(db) }

// CollectSamples harvests training plans with true cardinalities (§4.1's
// sample collection step); budget bounds per-query executor work.
func CollectSamples(db *Database, est Estimator, queries []*Query, budget int64) ([]Sample, core.CollectStats) {
	return core.CollectSamples(db, est, queries, budget)
}

// MaxLogCard returns the log-cardinality normalization constant of a
// training set.
func MaxLogCard(samples []Sample) float64 { return core.MaxLogCard(samples) }

// TrainLPCEI runs the full LPCE-I pipeline: teacher training plus
// knowledge-distillation compression (paper §4).
func TrainLPCEI(cfg LPCEIConfig, enc *Encoder, samples []Sample, logMax float64) *LPCEI {
	return core.TrainLPCEI(cfg, enc, samples, logMax)
}

// TrainRefiner runs LPCE-R's two stages (paper §5.2), pre-training its own
// content and cardinality modules from cfg.Base at the student widths
// LPCEIConfig{Teacher: cfg.Base} distills to, so a re-plan costs what an
// LPCE-I call does. In-repo callers pass LPCE-I's distilled student as the
// content module instead of training one.
func TrainRefiner(cfg RefinerConfig, enc *Encoder, db *Database, samples []Sample, logMax float64) *Refiner {
	base := cfg.Base
	student := LPCEIConfig{Teacher: base}.Defaults().Student
	base.Hidden, base.OutWidth = student.Hidden, student.OutWidth
	return core.TrainRefiner(cfg, core.TrainTreeModel(base, enc, samples, logMax, nil),
		core.TrainTreeModel(base, enc, samples, logMax, db), enc, db, samples, logMax)
}

// NewTreeEstimator adapts a trained tree model to the optimizer.
func NewTreeEstimator(label string, m *TreeModel, enc *Encoder) *TreeEstimator {
	return &TreeEstimator{Label: label, Model: m, Enc: enc}
}

// Execution.
type (
	// Engine drives end-to-end query execution (paper §6).
	Engine = engine.Engine
	// EngineConfig selects the estimator stack for a run.
	EngineConfig = engine.Config
	// Result is the outcome and time decomposition of one execution.
	Result = engine.Result
	// ReoptPolicy is the re-optimization trigger rule (threshold 50, max 3
	// in the paper).
	ReoptPolicy = reopt.Policy
	// OverlayRefiner re-optimizes without a learned refiner: set
	// EngineConfig.Refiner to OverlayRefiner{Base: est} to re-plan with
	// est overlaid by the executed sub-plans' exact cardinalities (§8).
	OverlayRefiner = reopt.OverlayRefiner
)

// NewEngine returns an engine over db.
func NewEngine(db *Database) *Engine { return engine.New(db) }

// DefaultReoptPolicy returns the paper's trigger settings.
func DefaultReoptPolicy() ReoptPolicy { return reopt.DefaultPolicy() }

// Experiments.
type (
	// ExperimentScale selects Tiny/Small/Full experiment sizes.
	ExperimentScale = experiments.Scale
	// ExperimentEnv is a fully prepared evaluation environment.
	ExperimentEnv = experiments.Env
)

// Experiment scales.
const (
	ScaleTiny  = experiments.ScaleTiny
	ScaleSmall = experiments.ScaleSmall
	ScaleFull  = experiments.ScaleFull
)

// SetupExperiments prepares data, workloads and trained models for the
// paper's evaluation suite.
func SetupExperiments(scale ExperimentScale, seed int64) *ExperimentEnv {
	return experiments.Setup(scale, seed)
}

// RunExperiments regenerates every table and figure of the paper's §7,
// streaming rendered results to w.
func RunExperiments(env *ExperimentEnv, w io.Writer) error {
	return experiments.RunAll(env, w)
}
