// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) on the synthetic IMDB-like database: workload
// generation, model training, end-to-end execution with every estimator,
// and the ablation studies. Each experiment accepts a Scale so unit tests
// (Tiny), `go test -bench` (Small), and `cmd/lpce-bench -scale=full` (Full)
// share one code path.
package experiments

import (
	"fmt"
	"time"

	"github.com/lpce-db/lpce/internal/baselines"
	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/datagen"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/modelio"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/treenn"
	"github.com/lpce-db/lpce/internal/workload"
)

// Scale selects experiment sizes.
type Scale int

// Scales.
const (
	// ScaleTiny is for unit tests: seconds end to end.
	ScaleTiny Scale = iota
	// ScaleSmall is the default for benchmarks: a few minutes.
	ScaleSmall
	// ScaleFull approximates the paper's setup proportionally to the
	// synthetic data: tens of minutes.
	ScaleFull
)

func (s Scale) String() string {
	switch s {
	case ScaleSmall:
		return "small"
	case ScaleFull:
		return "full"
	default:
		return "tiny"
	}
}

// ParseScale maps a flag string to a Scale; any string other than tiny,
// small or full is an error naming the valid scales.
func ParseScale(s string) (Scale, error) {
	switch s {
	case "tiny":
		return ScaleTiny, nil
	case "small":
		return ScaleSmall, nil
	case "full":
		return ScaleFull, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want tiny, small or full)", s)
}

// params bundles every scale-dependent knob.
type params struct {
	titles        int
	trainQueries  int
	trainMinJoins int
	trainMaxJoins int
	testQueries   int // per test set
	budget        int64
	// collectBudget bounds per-query work during training-sample
	// collection, which materializes every operator's output; heavy
	// queries are skipped rather than allowed to buffer multi-GB
	// intermediates.
	collectBudget int64
	// oracleBudget bounds exact-count computation; test queries are
	// curated so their true cardinalities are computable within it (the
	// paper analogously selects test queries by execution time).
	oracleBudget int64

	teacher core.TrainConfig
	student core.TrainConfig
	mscn    baselines.MSCNConfig
	refiner core.RefinerConfig

	walksNeuroCard int
	walksFlat      int
	walksUAE       int
}

func paramsFor(scale Scale, seed int64) params {
	switch scale {
	case ScaleFull:
		return params{
			titles: 8000, trainQueries: 1500, trainMinJoins: 4, trainMaxJoins: 8,
			testQueries: 100, budget: 300_000_000, collectBudget: 40_000_000, oracleBudget: 200_000_000,
			teacher:        core.TrainConfig{Hidden: 64, OutWidth: 128, Epochs: 80, Batch: 50, LR: 1e-3, NodeWise: true, Seed: seed},
			student:        core.TrainConfig{Hidden: 16, OutWidth: 32, Epochs: 50, Batch: 50, LR: 1e-3, NodeWise: true, Seed: seed},
			mscn:           baselines.MSCNConfig{Hidden: 64, Epochs: 16, Batch: 50, LR: 1e-3, Seed: seed},
			refiner:        core.RefinerConfig{Kind: core.RefinerFull, AdjustEpochs: 8, PrefixesPerSample: 3},
			walksNeuroCard: 500, walksFlat: 160, walksUAE: 700,
		}
	case ScaleSmall:
		return params{
			titles: 2500, trainQueries: 450, trainMinJoins: 3, trainMaxJoins: 8,
			testQueries: 25, budget: 120_000_000, collectBudget: 30_000_000, oracleBudget: 80_000_000,
			teacher:        core.TrainConfig{Hidden: 48, OutWidth: 64, Epochs: 60, Batch: 32, LR: 1.5e-3, NodeWise: true, Seed: seed},
			student:        core.TrainConfig{Hidden: 12, OutWidth: 16, Epochs: 40, Batch: 32, LR: 1.5e-3, NodeWise: true, Seed: seed},
			mscn:           baselines.MSCNConfig{Hidden: 48, Epochs: 10, Batch: 50, LR: 1.5e-3, Seed: seed},
			refiner:        core.RefinerConfig{Kind: core.RefinerFull, AdjustEpochs: 5, PrefixesPerSample: 3},
			walksNeuroCard: 400, walksFlat: 130, walksUAE: 550,
		}
	default:
		return params{
			titles: 400, trainQueries: 60, trainMinJoins: 2, trainMaxJoins: 5,
			testQueries: 6, budget: 100_000_000, collectBudget: 30_000_000, oracleBudget: 30_000_000,
			teacher:        core.TrainConfig{Hidden: 16, OutWidth: 16, Epochs: 16, Batch: 16, LR: 3e-3, NodeWise: true, Seed: seed},
			student:        core.TrainConfig{Hidden: 8, OutWidth: 8, Epochs: 12, Batch: 16, LR: 3e-3, NodeWise: true, Seed: seed},
			mscn:           baselines.MSCNConfig{Hidden: 16, Epochs: 6, Batch: 32, LR: 3e-3, Seed: seed},
			refiner:        core.RefinerConfig{Kind: core.RefinerFull, AdjustEpochs: 3, PrefixesPerSample: 2},
			walksNeuroCard: 120, walksFlat: 50, walksUAE: 180,
		}
	}
}

// testJoins returns the join counts of the test sets at this scale. The
// paper tests Join-six and Join-eight (plus Join-three for Figure 15); Tiny
// shrinks them so unit tests stay fast.
func (p params) testJoins(scale Scale) (joinLow, joinHigh, joinTiny int) {
	if scale == ScaleTiny {
		return 3, 4, 2
	}
	return 6, 8, 3
}

// Env is the fully-prepared experimental environment: database, trained
// estimators, and test workloads.
type Env struct {
	Scale  Scale
	Seed   int64
	P      params
	DB     *storage.Database
	Enc    *encode.Encoder
	Oracle *exec.TrueCardOracle

	Samples []core.Sample
	LogMax  float64

	Histogram *histogram.Estimator
	LPCEI     *core.LPCEI
	Refiner   *core.Refiner
	TLSTM     *core.TreeEstimator
	FlowLoss  *core.TreeEstimator
	MSCN      *baselines.MSCN
	NeuroCard *datadrivenEst
	DeepDB    *datadrivenEst
	FLAT      *datadrivenEst
	UAE       *datadrivenEst

	JoinLow  []*query.Query // "Join-six" (Join-three at Tiny)
	JoinHigh []*query.Query // "Join-eight" (Join-four at Tiny)
	JoinTiny []*query.Query // "Join-three" for Figure 15

	JoinLowLabel, JoinHighLabel, JoinTinyLabel string

	CollectStats core.CollectStats
	TrainTime    time.Duration
}

// datadrivenEst tags a data-driven estimator with its display name.
type datadrivenEst struct {
	cardest.Estimator
	Display string
}

// LPCEIEstimator returns the deployed LPCE-I as an optimizer estimator.
func (e *Env) LPCEIEstimator() cardest.Estimator {
	return &core.TreeEstimator{Label: "lpce-i", Model: e.LPCEI.Model, Enc: e.Enc}
}

// QueryDriven lists (name, estimator) pairs for the query-driven models.
func (e *Env) QueryDriven() []NamedEstimator {
	return []NamedEstimator{
		{"MSCN", e.MSCN},
		{"Flow-Loss", e.FlowLoss},
		{"TLSTM", e.TLSTM},
		{"LPCE-I", e.LPCEIEstimator()},
	}
}

// DataDriven lists (name, estimator) pairs for the data-driven substitutes.
func (e *Env) DataDriven() []NamedEstimator {
	return []NamedEstimator{
		{"DeepDB", e.DeepDB},
		{"NeuroCard", e.NeuroCard},
		{"FLAT", e.FLAT},
		{"UAE", e.UAE},
	}
}

// NamedEstimator pairs a display name with an estimator.
type NamedEstimator struct {
	Name string
	Est  cardest.Estimator
}

// SetupOptions customizes SetupWith beyond (scale, seed).
type SetupOptions struct {
	// ModelsDir, when non-empty, loads the SGD-trained models from the
	// modelio model set file in that directory (written by cmd/lpce-train)
	// instead of training them. The set must have been trained against the
	// same (scale, seed) database; the format's encoder fingerprint rejects
	// anything else.
	ModelsDir string
	// TrainOnly skips the data-driven estimators and the curated test
	// workloads; cmd/lpce-train uses it because it only needs the trained
	// models.
	TrainOnly bool
}

// Setup builds the complete environment: generate data, collect training
// samples, train every model. Deterministic per (scale, seed).
func Setup(scale Scale, seed int64) *Env {
	// With zero options SetupWith has no failure path.
	env, err := SetupWith(scale, seed, SetupOptions{})
	if err != nil {
		panic(err)
	}
	return env
}

// SetupWith is Setup with explicit options: loading a pre-trained model set
// or a training-only environment.
func SetupWith(scale Scale, seed int64, opts SetupOptions) (*Env, error) {
	p := paramsFor(scale, seed)
	db := datagen.Generate(datagen.Config{Titles: p.titles, Seed: seed})
	enc := encode.NewEncoder(db.Schema)
	env := &Env{Scale: scale, Seed: seed, P: p, DB: db, Enc: enc, Oracle: exec.NewTrueCardOracle(db)}
	env.Oracle.Budget = p.oracleBudget

	env.Histogram = histogram.NewEstimator(db)

	// Training workload and sample collection (paper §7.1). Samples are
	// collected even when models are loaded from a model set: LogMax, UAE
	// calibration, and the CE-evaluation experiments all consume them.
	gTrain := workload.NewGenerator(db, seed+1)
	trainQs := gTrain.QueriesRange(p.trainQueries, p.trainMinJoins, p.trainMaxJoins)
	env.Samples, env.CollectStats = core.CollectSamples(db, env.Histogram, trainQs, p.collectBudget)
	env.LogMax = core.MaxLogCard(env.Samples)

	trainStart := time.Now()
	if opts.ModelsDir != "" {
		set, err := modelio.LoadSet(opts.ModelsDir, enc, db)
		if err != nil {
			return nil, err
		}
		env.LPCEI = set.LPCEI
		env.Refiner = set.Refiner
		env.TLSTM = &core.TreeEstimator{Label: "tlstm", Model: set.TLSTM, Enc: enc}
		env.FlowLoss = &core.TreeEstimator{Label: "flow-loss", Model: set.FlowLoss, Enc: enc}
		env.MSCN = set.MSCN
	} else {
		env.LPCEI = core.TrainLPCEI(core.LPCEIConfig{Teacher: p.teacher, Student: p.student}, enc, env.Samples, env.LogMax)
		// LPCE-R re-plans at LPCE-I's width: the student is its content
		// module and the cardinality module trains at the student config.
		rcfg := p.refiner
		rcfg.Base = p.student
		env.Refiner = core.TrainRefiner(rcfg, env.LPCEI.Model,
			core.TrainTreeModel(p.student, enc, env.Samples, env.LogMax, db), enc, db, env.Samples, env.LogMax)

		tlstmCfg := p.teacher
		tlstmCfg.Cell = treenn.CellLSTM
		env.TLSTM = baselines.TrainTLSTM(tlstmCfg, enc, env.Samples, env.LogMax)
		env.FlowLoss = baselines.TrainFlowLoss(p.teacher, enc, env.Samples, env.LogMax)
		env.MSCN = baselines.TrainMSCN(p.mscn, db.Schema, env.Samples, env.LogMax)
	}
	env.TrainTime = time.Since(trainStart)

	if opts.TrainOnly {
		return env, nil
	}

	env.NeuroCard = &datadrivenEst{datadrivenFor(db, "neurocard", p, seed), "NeuroCard"}
	env.DeepDB = &datadrivenEst{datadrivenFor(db, "deepdb", p, seed), "DeepDB"}
	env.FLAT = &datadrivenEst{datadrivenFor(db, "flat", p, seed), "FLAT"}
	uae := newUAE(db, p, seed)
	calibrateUAE(uae, env.Samples)
	env.UAE = &datadrivenEst{uae, "UAE"}

	// Test workloads, curated so exact counts are computable (see
	// oracleBudget).
	jl, jh, jt := p.testJoins(scale)
	gTest := workload.NewGenerator(db, seed+2)
	env.JoinLow = env.CuratedQueries(gTest, p.testQueries, jl)
	env.JoinHigh = env.CuratedQueries(gTest, p.testQueries, jh)
	env.JoinTiny = env.CuratedQueries(gTest, p.testQueries, jt)
	env.JoinLowLabel = joinLabel(jl)
	env.JoinHighLabel = joinLabel(jh)
	env.JoinTinyLabel = joinLabel(jt)
	return env, nil
}

// ModelSet bundles the environment's SGD-trained models for modelio
// persistence; cmd/lpce-train saves it and cmd/lpce-bench -models-in loads
// it back.
func (e *Env) ModelSet() *modelio.Set {
	return &modelio.Set{
		LPCEI:    e.LPCEI,
		Refiner:  e.Refiner,
		TLSTM:    e.TLSTM.Model,
		FlowLoss: e.FlowLoss.Model,
		MSCN:     e.MSCN,
	}
}

// CuratedQueries generates queries with the requested join count whose
// true cardinality is computable within the oracle budget, discarding
// pathological candidates (the analogue of the paper's curation of test
// queries by PostgreSQL execution time).
func (e *Env) CuratedQueries(g *workload.Generator, n, joins int) []*query.Query {
	out := make([]*query.Query, 0, n)
	for attempts := 0; len(out) < n && attempts < n*30; attempts++ {
		q := g.Query(joins)
		if _, err := e.Oracle.TryEstimate(q, q.AllTablesMask()); err != nil {
			continue
		}
		out = append(out, q)
	}
	return out
}

func joinLabel(n int) string {
	names := map[int]string{2: "Join-two", 3: "Join-three", 4: "Join-four", 6: "Join-six", 8: "Join-eight"}
	if s, ok := names[n]; ok {
		return s
	}
	return "Join-n"
}
