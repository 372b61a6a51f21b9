package lpce

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"

	"github.com/lpce-db/lpce/internal/baselines"
	"github.com/lpce-db/lpce/internal/modelio"
)

// TestPublicAPIEndToEnd drives the entire documented quick-start flow
// through the facade, mirroring what a downstream user would write.
func TestPublicAPIEndToEnd(t *testing.T) {
	db := GenerateDatabase(DataConfig{Titles: 300, Seed: 1})
	if db.TotalRows() == 0 {
		t.Fatal("empty database")
	}
	gen := NewWorkloadGenerator(db, 2)

	samples, stats := CollectSamples(db, NewHistogramEstimator(db),
		gen.QueriesRange(40, 2, 4), 50_000_000)
	if stats.Collected < 30 {
		t.Fatalf("collected %d samples", stats.Collected)
	}

	enc := NewEncoder(db.Schema)
	logMax := MaxLogCard(samples)
	model := TrainLPCEI(LPCEIConfig{
		Teacher: TrainConfig{Hidden: 12, OutWidth: 12, Epochs: 4, NodeWise: true, Seed: 1},
		Student: TrainConfig{Hidden: 8, OutWidth: 8, Epochs: 3, NodeWise: true, Seed: 1},
	}, enc, samples, logMax)
	refiner := TrainRefiner(RefinerConfig{
		Base: TrainConfig{Hidden: 12, OutWidth: 12, Epochs: 3, NodeWise: true, Seed: 1},
	}, enc, db, samples, logMax)

	eng := NewEngine(db)
	q := gen.Query(4)
	res, err := eng.Execute(q, EngineConfig{
		Estimator: NewTreeEstimator("lpce-i", model.Model, enc),
		Refiner:   refiner,
		Policy:    DefaultReoptPolicy(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Total() <= 0 {
		t.Fatal("no time recorded")
	}

	// same result as the histogram baseline
	base, err := eng.Execute(q, EngineConfig{Estimator: NewHistogramEstimator(db)})
	if err != nil {
		t.Fatal(err)
	}
	if base.Count != res.Count {
		t.Fatalf("LPCE changed the result: %d vs %d", res.Count, base.Count)
	}
}

func TestDefaultReoptPolicyValues(t *testing.T) {
	p := DefaultReoptPolicy()
	if p.QErrThreshold != 50 || p.MaxReopts != 3 {
		t.Fatalf("policy = %+v", p)
	}
}

// TestExperimentFacade smoke-tests the experiment entry points at tiny
// scale through the public API.
func TestExperimentFacade(t *testing.T) {
	if testing.Short() {
		t.Skip("tiny experiment environment still trains several models")
	}
	env := SetupExperiments(ScaleTiny, 3)
	var buf bytes.Buffer
	// RunExperiments executes the full suite; at tiny scale it completes in
	// well under a minute, and the rendered report must contain every
	// table/figure heading.
	if err := RunExperiments(env, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{
		"Table 1", "Figure 1", "Table 2", "Figure 11", "Figure 12",
		"Figure 13", "Figure 14", "Figure 15", "Figure 16", "Figure 17",
		"Figure 18", "Figures 19-20", "Figure 21", "Table 3",
	} {
		if !strings.Contains(out, frag) {
			t.Fatalf("experiment report missing %q", frag)
		}
	}
}

// TestRobustnessFacade drives the fault-tolerance surface through the
// public API: a panicking estimator fails its query with a typed error,
// per-query deadlines, and resource budgets.
func TestRobustnessFacade(t *testing.T) {
	db := GenerateDatabase(DataConfig{Titles: 300, Seed: 5})
	gen := NewWorkloadGenerator(db, 6)
	eng := NewEngine(db)
	q := gen.Query(3)

	_, err := eng.Execute(q, EngineConfig{Estimator: panicky{}})
	var pe *PanicError
	if !errors.As(err, &pe) || pe.Value != "model exploded" {
		t.Fatalf("err = %v, want *PanicError carrying the estimator's panic", err)
	}
	// The engine keeps serving: the next query on it succeeds.
	if _, err := eng.Execute(q, EngineConfig{Estimator: NewHistogramEstimator(db)}); err != nil {
		t.Fatal(err)
	}

	// A 10-row materialization budget fails some query with the typed error.
	var hit bool
	for i := 0; i < 20 && !hit; i++ {
		_, err := eng.Execute(gen.Query(4), EngineConfig{
			Estimator: NewHistogramEstimator(db),
			Limits:    ResourceLimits{MaxMatRows: 10},
		})
		var re *ResourceError
		if errors.As(err, &re) {
			hit = true
		} else if err != nil {
			t.Fatalf("unexpected error type: %v", err)
		}
	}
	if !hit {
		t.Fatal("no query tripped the materialization budget")
	}

	// A cancelled context fails the query with the context's error.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng.ExecuteContext(ctx, q, EngineConfig{Estimator: NewHistogramEstimator(db)}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// panicky is an estimator that always panics, standing in for a broken
// learned model.
type panicky struct{}

func (panicky) Name() string                          { return "panicky" }
func (panicky) EstimateSubset(*Query, BitSet) float64 { panic("model exploded") }

// TestTrainRefinerServesAtStudentWidth holds the facade's LPCE-R to the
// width LPCE-I serves at: under a zero config every module and the connect
// layer are as wide as the student LPCEIConfig{} distills, so a re-plan
// costs an LPCE-I-sized model.
func TestTrainRefinerServesAtStudentWidth(t *testing.T) {
	db := GenerateDatabase(DataConfig{Titles: 300, Seed: 1})
	gen := NewWorkloadGenerator(db, 2)
	samples, _ := CollectSamples(db, NewHistogramEstimator(db), gen.QueriesRange(12, 2, 3), 50_000_000)
	enc := NewEncoder(db.Schema)
	r := TrainRefiner(RefinerConfig{}, enc, db, samples, MaxLogCard(samples))

	widths := LPCEIConfig{}.Defaults()
	student := widths.Student
	if student.Hidden >= widths.Teacher.Hidden {
		t.Fatalf("student width %d is not below the teacher's %d", student.Hidden, widths.Teacher.Hidden)
	}
	for name, m := range map[string]*TreeModel{"content": r.Content, "card": r.CardM, "refine": r.Refine} {
		if m.Cfg.Hidden != student.Hidden || m.Cfg.OutWidth != student.OutWidth {
			t.Errorf("%s module at %d/%d, want the student's %d/%d",
				name, m.Cfg.Hidden, m.Cfg.OutWidth, student.Hidden, student.OutWidth)
		}
	}
	if got := r.Connect.Params.Get("connect.wout.W").Val; len(got) != student.Hidden*student.Hidden {
		t.Errorf("connect layer has %d output weights, want %d", len(got), student.Hidden*student.Hidden)
	}
}

// TestModelArtifactsRejectOtherStatistics: a model set saved against one
// database loads back against it, and fails to load against a database with
// the same schema but different column statistics, whose encoder would
// shift every operand feature the models were trained on.
func TestModelArtifactsRejectOtherStatistics(t *testing.T) {
	db := GenerateDatabase(DataConfig{Titles: 300, Seed: 1})
	other := GenerateDatabase(DataConfig{Titles: 300, Seed: 2})
	enc, otherEnc := NewEncoder(db.Schema), NewEncoder(other.Schema)
	if enc.Dim() != otherEnc.Dim() {
		t.Fatalf("schemas differ (%d vs %d features); the test needs equal ones", enc.Dim(), otherEnc.Dim())
	}
	gen := NewWorkloadGenerator(db, 2)
	samples, _ := CollectSamples(db, NewHistogramEstimator(db), gen.QueriesRange(12, 2, 3), 50_000_000)
	logMax := MaxLogCard(samples)
	cfg := TrainConfig{Hidden: 4, OutWidth: 4, Epochs: 1, NodeWise: true, Seed: 1}
	set := &ModelSet{
		LPCEI:    TrainLPCEI(LPCEIConfig{Teacher: cfg, Student: cfg}, enc, samples, logMax),
		Refiner:  TrainRefiner(RefinerConfig{Base: cfg, AdjustEpochs: 1, PrefixesPerSample: 1}, enc, db, samples, logMax),
		TLSTM:    baselines.TrainTLSTM(cfg, enc, samples, logMax).Model,
		FlowLoss: baselines.TrainFlowLoss(cfg, enc, samples, logMax).Model,
		MSCN:     baselines.TrainMSCN(baselines.MSCNConfig{Hidden: 4, Epochs: 1, Seed: 1}, db.Schema, samples, logMax),
	}

	dir := t.TempDir()
	if err := SaveModelSet(set, dir, enc); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadModelSet(dir, enc, db); err != nil {
		t.Fatalf("set against its own database: %v", err)
	}
	if _, err := LoadModelSet(dir, otherEnc, other); !errors.Is(err, modelio.ErrFingerprint) {
		t.Fatalf("set against other statistics: err = %v, want a fingerprint mismatch", err)
	}
}
