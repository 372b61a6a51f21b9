// Benchmarks regenerating the paper's measurements as testing.B units, one
// per table/figure (full sweeps live in cmd/lpce-bench; these isolate the
// per-operation costs each experiment aggregates):
//
//	Table 1 / Figure 19 — per-estimate inference latency of every estimator
//	Table 2 / Figures 11–13 — end-to-end execution per configuration
//	Figure 12 — plan-search and executor costs in isolation
//	Figure 14 / 16 — re-optimization and refinement inference
//	Figure 18 — training cost per epoch and sample collection
//	Figure 21 / Table 3 — loss-variant training and refinement ablations
//
// Run with: go test -bench=. -benchmem
package lpce

import (
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/cardest"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/engine"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/experiments"
	"github.com/lpce-db/lpce/internal/optimizer"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/tensor"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
)

// benchSetup prepares one shared Tiny-scale environment; setup cost is paid
// once, outside the measured loops.
func benchSetup(b *testing.B) *experiments.Env {
	b.Helper()
	benchOnce.Do(func() { benchEnv = experiments.Setup(experiments.ScaleTiny, 5) })
	return benchEnv
}

// benchQuery returns a fixed deep-join query and its full mask.
func benchQuery(e *experiments.Env) (*query.Query, query.BitSet) {
	q := e.JoinHigh[0]
	return q, q.AllTablesMask()
}

// --- Table 1 / Figure 19: per-estimate inference latency ---

func benchEstimator(b *testing.B, est cardest.Estimator) {
	e := benchSetup(b)
	q, mask := benchQuery(e)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.EstimateSubset(q, mask)
	}
}

func BenchmarkTable1Inference(b *testing.B) {
	e := benchSetup(b)
	b.Run("Postgres", func(b *testing.B) { benchEstimator(b, e.Histogram) })
	b.Run("MSCN", func(b *testing.B) { benchEstimator(b, e.MSCN) })
	b.Run("TLSTM", func(b *testing.B) { benchEstimator(b, e.TLSTM) })
	b.Run("FlowLoss", func(b *testing.B) { benchEstimator(b, e.FlowLoss) })
	b.Run("LPCE-I", func(b *testing.B) { benchEstimator(b, e.LPCEIEstimator()) })
	b.Run("NeuroCard-sim", func(b *testing.B) { benchEstimator(b, e.NeuroCard) })
	b.Run("DeepDB-sim", func(b *testing.B) { benchEstimator(b, e.DeepDB) })
	b.Run("FLAT-sim", func(b *testing.B) { benchEstimator(b, e.FLAT) })
	b.Run("UAE-sim", func(b *testing.B) { benchEstimator(b, e.UAE) })
}

func BenchmarkFigure19Variants(b *testing.B) {
	e := benchSetup(b)
	// LPCE-S (uncompressed SRU teacher) vs LPCE-I (distilled student); the
	// LSTM variant is covered by TLSTM above at equal width.
	b.Run("LPCE-S", func(b *testing.B) {
		benchEstimator(b, &core.TreeEstimator{Label: "lpce-s", Model: e.LPCEI.Teacher, Enc: e.Enc})
	})
	b.Run("LPCE-I", func(b *testing.B) { benchEstimator(b, e.LPCEIEstimator()) })
}

// --- Table 2 / Figures 11-13: end-to-end execution ---

func benchEndToEnd(b *testing.B, cfg engine.Config) {
	e := benchSetup(b)
	q, _ := benchQuery(e)
	eng := engine.New(e.DB)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2EndToEnd(b *testing.B) {
	e := benchSetup(b)
	b.Run("PostgreSQL", func(b *testing.B) {
		benchEndToEnd(b, engine.Config{Estimator: e.Histogram, Budget: 100_000_000})
	})
	b.Run("LPCE-I", func(b *testing.B) {
		benchEndToEnd(b, engine.Config{Estimator: e.LPCEIEstimator(), Budget: 100_000_000})
	})
	b.Run("LPCE-R", func(b *testing.B) {
		benchEndToEnd(b, engine.Config{
			Estimator: e.LPCEIEstimator(), Refiner: e.Refiner, Budget: 100_000_000,
		})
	})
	b.Run("NeuroCard-sim", func(b *testing.B) {
		benchEndToEnd(b, engine.Config{Estimator: e.NeuroCard, Budget: 100_000_000})
	})
}

// --- Figure 12 components: plan search and raw execution ---

func BenchmarkFigure12PlanSearch(b *testing.B) {
	e := benchSetup(b)
	q, _ := benchQuery(e)
	opt := newOptimizer(e)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := opt.Plan(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12Execution(b *testing.B) {
	e := benchSetup(b)
	q, _ := benchQuery(e)
	opt := newOptimizer(e)
	p, _, err := opt.Plan(q)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx := &exec.Ctx{DB: e.DB, Q: q, Controller: exec.NopController{}}
		if _, err := exec.Run(ctx, p.Clone()); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figure 14 / 16: re-optimization machinery ---

func BenchmarkFigure14Reoptimization(b *testing.B) {
	// Worst case: a constant mis-estimator forces the full re-optimization
	// path (checkpoint → LPCE-R refinement → re-planning → resume).
	e := benchSetup(b)
	q, _ := benchQuery(e)
	eng := engine.New(e.DB)
	cfg := engine.Config{
		Estimator: cardest.Fixed{Value: 2, Label: "bad"},
		Refiner:   e.Refiner,
		Policy:    reopt.Policy{QErrThreshold: 10, MaxReopts: 3},
		Budget:    100_000_000,
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Execute(q, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure16RefinementInference(b *testing.B) {
	e := benchSetup(b)
	samples := e.CollectTestSamples(e.JoinHigh[:1])
	if len(samples) == 0 {
		b.Skip("no collectable sample")
	}
	s := samples[0]
	k := s.Plan.NumNodes() / 2
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Refiner.EvalPrefix(s, k)
	}
}

// --- Figure 18: training pipeline costs ---

func BenchmarkFigure18TrainingEpoch(b *testing.B) {
	e := benchSetup(b)
	cfg := core.TrainConfig{Hidden: 16, OutWidth: 16, Epochs: 1, Batch: 16, LR: 1e-3, NodeWise: true, Seed: 1}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.TrainTreeModel(cfg, e.Enc, e.Samples, e.LogMax, nil)
	}
}

func BenchmarkFigure18SampleCollection(b *testing.B) {
	e := benchSetup(b)
	qs := e.JoinLow[:2]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.CollectSamples(e.DB, e.Histogram, qs, 100_000_000)
	}
}

// --- Figure 21 / Table 3: ablation training units ---

func BenchmarkFigure21LossVariants(b *testing.B) {
	e := benchSetup(b)
	for _, nodeWise := range []bool{true, false} {
		name := "query-wise"
		if nodeWise {
			name = "node-wise"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.TrainConfig{Hidden: 12, OutWidth: 12, Epochs: 1, Batch: 16,
				LR: 1e-3, NodeWise: nodeWise, Seed: 2}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				core.TrainTreeModel(cfg, e.Enc, e.Samples, e.LogMax, nil)
			}
		})
	}
}

func BenchmarkTable3RefinerKinds(b *testing.B) {
	e := benchSetup(b)
	samples := e.CollectTestSamples(e.JoinHigh[:1])
	if len(samples) == 0 {
		b.Skip("no collectable sample")
	}
	s := samples[0]
	k := s.Plan.NumNodes() / 2
	kinds := []core.RefinerKind{core.RefinerFull, core.RefinerSingle, core.RefinerTwo}
	for _, kind := range kinds {
		cfg := core.RefinerConfig{Kind: kind,
			Base:         core.TrainConfig{Hidden: 10, OutWidth: 10, Epochs: 2, Batch: 16, LR: 2e-3, NodeWise: true, Seed: 3},
			AdjustEpochs: 1, PrefixesPerSample: 1}
		r := core.TrainRefiner(cfg, e.Enc, e.DB, e.Samples[:20], e.LogMax)
		b.Run(kind.String(), func(b *testing.B) {
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r.EvalPrefix(s, k)
			}
		})
	}
}

// --- SRU cell microbenchmark (the Eq. 1 kernel) ---

func BenchmarkSRUCellForward(b *testing.B) {
	e := benchSetup(b)
	q, mask := benchQuery(e)
	node := exec.CanonicalPlan(q, mask)
	m := e.LPCEI.Model
	feat := func(n *plan.Node) tensor.Vec { return e.Enc.EncodeNode(n) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(node, feat)
	}
}

// newOptimizer builds a plan enumerator over the environment's LPCE-I
// estimator, the configuration whose plan-search time Figure 12 reports.
func newOptimizer(e *experiments.Env) *optimizer.Optimizer {
	return optimizer.New(e.DB, e.LPCEIEstimator())
}

// --- Shared estimate cache (the server's per-tenant caches) ---

// BenchmarkEstimateCacheHit isolates the cache's hot path: a fingerprint,
// one sharded map lookup, and an atomic counter bump.
func BenchmarkEstimateCacheHit(b *testing.B) {
	e := benchSetup(b)
	q, mask := benchQuery(e)
	c := cardest.NewCache(e.Histogram, nil, 0)
	c.EstimateSubset(q, mask) // warm the single key
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.EstimateSubset(q, mask)
	}
}
