package core

import (
	"math"
	"strings"
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/exec"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/reopt"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/treenn"
	"github.com/lpce-db/lpce/internal/workload"
)

// Shared fixture: a small sample set collected once per test binary.
var (
	fixOnce    sync.Once
	fixDB      *storage.Database
	fixEnc     *encode.Encoder
	fixSamples []Sample
	fixLogMax  float64
)

func fixture(t *testing.T) (*storage.Database, *encode.Encoder, []Sample, float64) {
	t.Helper()
	fixOnce.Do(func() {
		fixDB = testutil.TinyDB()
		fixEnc = encode.NewEncoder(fixDB.Schema)
		g := workload.NewGenerator(fixDB, 81)
		queries := g.QueriesRange(60, 2, 5)
		est := histogram.NewEstimator(fixDB)
		fixSamples, _ = CollectSamples(fixDB, est, queries, 50_000_000)
		fixLogMax = MaxLogCard(fixSamples)
	})
	if len(fixSamples) < 30 {
		t.Fatalf("fixture collected only %d samples", len(fixSamples))
	}
	return fixDB, fixEnc, fixSamples, fixLogMax
}

func tinyCfg(seed int64) TrainConfig {
	return TrainConfig{Hidden: 16, OutWidth: 16, Epochs: 6, Batch: 16, LR: 3e-3, NodeWise: true, Seed: seed}
}

// trainRefiner trains a refiner's two stage-1 modules from cfg.Base, at its
// width, and runs stage 2 over them.
func trainRefiner(cfg RefinerConfig, enc *encode.Encoder, db *storage.Database, samples []Sample, logMax float64) *Refiner {
	content := TrainTreeModel(cfg.Base, enc, samples, logMax, nil)
	card := TrainTreeModel(cfg.Base, enc, samples, logMax, db)
	return TrainRefiner(cfg, content, card, enc, db, samples, logMax)
}

func TestCollectSamplesStampsTrueCards(t *testing.T) {
	_, _, samples, _ := fixture(t)
	for _, s := range samples[:10] {
		s.Plan.Walk(func(n *plan.Node) {
			if n.TrueCard < 0 {
				t.Fatalf("node %v missing true cardinality", n.Op)
			}
		})
	}
}

func TestCollectSamplesSkipsOverBudget(t *testing.T) {
	db := testutil.TinyDB()
	g := workload.NewGenerator(db, 82)
	queries := g.Queries(5, 3)
	est := histogram.NewEstimator(db)
	_, stats := CollectSamples(db, est, queries, 10) // absurdly small budget
	if stats.Skipped != 5 || stats.Collected != 0 {
		t.Fatalf("stats = %+v, want all skipped", stats)
	}
}

func TestMaxLogCard(t *testing.T) {
	_, _, samples, logMax := fixture(t)
	var maxCard float64
	for _, s := range samples {
		s.Plan.Walk(func(n *plan.Node) {
			if n.TrueCard > maxCard {
				maxCard = n.TrueCard
			}
		})
	}
	if math.Abs(logMax-math.Log(maxCard)) > 1e-9 {
		t.Fatalf("MaxLogCard = %v, want %v", logMax, math.Log(maxCard))
	}
}

func TestSplitTrainValidation(t *testing.T) {
	_, _, samples, _ := fixture(t)
	train, val := SplitTrainValidation(samples, 0.1)
	if len(train)+len(val) != len(samples) {
		t.Fatal("split loses samples")
	}
	if len(val) != len(samples)/10 {
		t.Fatalf("val size = %d", len(val))
	}
	// degenerate fractions
	tr2, v2 := SplitTrainValidation(samples[:1], 0.9)
	if len(tr2) != 1 || len(v2) != 0 {
		t.Fatal("single-sample split should keep the sample in train")
	}
}

func TestTrainingImprovesOverUntrained(t *testing.T) {
	_, enc, samples, logMax := fixture(t)
	train, val := SplitTrainValidation(samples, 0.2)

	untrained := treenn.NewTreeModel(treenn.Config{
		InputDim: enc.Dim(), Hidden: 16, OutWidth: 16, Cell: treenn.CellSRU, Seed: 9,
	})
	untrained.LogMax = logMax
	meanBefore, _ := EvalQError(untrained, enc, val)

	m := TrainTreeModel(tinyCfg(10), enc, train, logMax, nil)
	meanAfter, all := EvalQError(m, enc, val)
	if len(all) != len(val) {
		t.Fatal("EvalQError lost samples")
	}
	if meanAfter >= meanBefore {
		t.Fatalf("training did not improve q-error: %v -> %v", meanBefore, meanAfter)
	}
	for _, q := range all {
		if q < 1 || math.IsNaN(q) || math.IsInf(q, 0) {
			t.Fatalf("invalid q-error %v", q)
		}
	}
}

func TestQueryWiseLossAlsoTrains(t *testing.T) {
	_, enc, samples, logMax := fixture(t)
	cfg := tinyCfg(11)
	cfg.NodeWise = false
	m := TrainTreeModel(cfg, enc, samples, logMax, nil)
	mean, _ := EvalQError(m, enc, samples)
	if math.IsNaN(mean) || mean < 1 {
		t.Fatalf("query-wise training produced invalid mean q %v", mean)
	}
}

func TestDistillCompressesModel(t *testing.T) {
	_, enc, samples, logMax := fixture(t)
	cfg := LPCEIConfig{
		Teacher: TrainConfig{Hidden: 32, OutWidth: 64, Epochs: 4, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 12},
		Student: TrainConfig{Hidden: 8, OutWidth: 8, Epochs: 3, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 12},
	}
	lp := TrainLPCEI(cfg, enc, samples, logMax)
	if lp.Model.NumWeights()*5 > lp.Teacher.NumWeights() {
		t.Fatalf("student %d weights vs teacher %d: compression below 5x",
			lp.Model.NumWeights(), lp.Teacher.NumWeights())
	}
	mean, _ := EvalQError(lp.Model, enc, samples)
	if math.IsNaN(mean) || mean < 1 {
		t.Fatalf("distilled model invalid (mean q = %v)", mean)
	}
	if lp.Model.LogMax != lp.Teacher.LogMax {
		t.Fatal("student must inherit the teacher's normalization")
	}
}

func TestTreeEstimatorInterface(t *testing.T) {
	db, enc, samples, logMax := fixture(t)
	m := TrainTreeModel(tinyCfg(13), enc, samples, logMax, nil)
	est := &TreeEstimator{Label: "lpce-i", Model: m, Enc: enc}
	if est.Name() != "lpce-i" {
		t.Fatal("name")
	}
	g := workload.NewGenerator(db, 83)
	q := g.Query(3)
	for mask := query.BitSet(1); mask <= q.AllTablesMask(); mask++ {
		if !q.Connected(mask) {
			continue
		}
		v := est.EstimateSubset(q, mask)
		if v < 1 || math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("estimate %v invalid for mask %b", v, uint32(mask))
		}
	}
}

func TestPrefixSubtreesInvariants(t *testing.T) {
	_, _, samples, _ := fixture(t)
	s := samples[0]
	m := s.Plan.NumNodes()
	nodes := s.Plan.Nodes()
	for k := 1; k < m; k++ {
		execRoots, remaining := PrefixSubtrees(s.Plan, k)
		// executed subtrees cover exactly the first k post-order nodes
		covered := map[*plan.Node]bool{}
		for _, r := range execRoots {
			r.Walk(func(n *plan.Node) {
				if covered[n] {
					t.Fatal("executed subtrees overlap")
				}
				covered[n] = true
			})
		}
		if len(covered) != k {
			t.Fatalf("k=%d: executed cover %d nodes", k, len(covered))
		}
		for i, n := range nodes {
			if (i < k) != covered[n] {
				t.Fatalf("k=%d: node %d coverage mismatch", k, i)
			}
		}
		if len(remaining)+len(covered) != m {
			t.Fatalf("k=%d: remaining %d + covered %d != %d", k, len(remaining), len(covered), m)
		}
	}
}

func TestRefinerFullTrainAndEval(t *testing.T) {
	db, enc, samples, logMax := fixture(t)
	cfg := RefinerConfig{Kind: RefinerFull, Base: tinyCfg(14), AdjustEpochs: 3, PrefixesPerSample: 2}
	r := trainRefiner(cfg, enc, db, samples, logMax)
	if r.Content == nil || r.CardM == nil || r.Refine == nil || r.Connect == nil {
		t.Fatal("full refiner missing modules")
	}
	s := samples[1]
	m := s.Plan.NumNodes()
	for _, k := range []int{1, m / 2, m - 1} {
		qs := r.EvalPrefix(s, k)
		for _, q := range qs {
			if q < 1 || math.IsNaN(q) || math.IsInf(q, 0) {
				t.Fatalf("invalid refined q-error %v at k=%d", q, k)
			}
		}
	}
}

func TestRefinerVariants(t *testing.T) {
	db, enc, samples, logMax := fixture(t)
	for _, kind := range []RefinerKind{RefinerSingle, RefinerTwo} {
		cfg := RefinerConfig{Kind: kind, Base: tinyCfg(15), AdjustEpochs: 2, PrefixesPerSample: 2}
		r := trainRefiner(cfg, enc, db, samples, logMax)
		if kind == RefinerSingle && (r.Refine != nil || r.Content != nil) {
			t.Fatal("single variant should only have the cardinality module")
		}
		if kind == RefinerTwo && (r.Content != nil || r.Connect != nil) {
			t.Fatal("two-module variant should not have content/connect")
		}
		qs := r.EvalPrefix(samples[2], 2)
		if len(qs) == 0 {
			t.Fatalf("%v produced no refined estimates", kind)
		}
	}
}

// TestTrainRefinerLeavesStageOneModules holds stage 2 to reading its
// stage-1 modules: LPCE-I's student is LPCE-R's content module (and the
// estimator LPCE-I serves), and Table 3's variants share one cardinality
// module, so a refiner that fine-tuned either in place would change every
// other user.
func TestTrainRefinerLeavesStageOneModules(t *testing.T) {
	db, enc, samples, logMax := fixture(t)
	student := TrainConfig{Hidden: 8, OutWidth: 8, Epochs: 1, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 18}
	lp := TrainLPCEI(LPCEIConfig{Teacher: tinyCfg(18), Student: student}, enc, samples, logMax)
	card := TrainTreeModel(student, enc, samples, logMax, db)
	studentDigest, cardDigest := paramDigest(lp.Model.Params), paramDigest(card.Params)
	for _, kind := range []RefinerKind{RefinerFull, RefinerTwo, RefinerSingle} {
		r := TrainRefiner(RefinerConfig{Kind: kind, Base: student, AdjustEpochs: 2, PrefixesPerSample: 2}, lp.Model, card, enc, db, samples, logMax)
		if got := paramDigest(lp.Model.Params); got != studentDigest {
			t.Fatalf("%v: LPCE-I's student (the content module) changed: digest %s, was %s", kind, got, studentDigest)
		}
		if got := paramDigest(card.Params); got != cardDigest {
			t.Fatalf("%v: the cardinality module changed: digest %s, was %s", kind, got, cardDigest)
		}
		if r.Refine != nil && paramDigest(r.Refine.Params) == studentDigest {
			t.Fatalf("%v: the refine module was not fine-tuned", kind)
		}
	}
}

// TestTrainRefinerRejectsWidthMismatch: the connect layer and the refine
// module read the cardinality module's embeddings, so a content module of
// another width must fail at TrainRefiner with a message naming both
// widths, not with a MatVec shape panic deep in the connect layer.
// LPCE-R-Single has no content module and needs no match.
func TestTrainRefinerRejectsWidthMismatch(t *testing.T) {
	db, enc, samples, logMax := fixture(t)
	narrow := TrainConfig{Hidden: 8, OutWidth: 8, Epochs: 1, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 19}
	content := TrainTreeModel(narrow, enc, samples, logMax, nil)
	card := TrainTreeModel(tinyCfg(19), enc, samples, logMax, db)
	for _, kind := range []RefinerKind{RefinerFull, RefinerTwo} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "content module width 8, cardinality module 16") {
					t.Errorf("%v: recovered %q, want a width-mismatch panic", kind, msg)
				}
			}()
			TrainRefiner(RefinerConfig{Kind: kind, Base: narrow, AdjustEpochs: 1, PrefixesPerSample: 1}, content, card, enc, db, samples, logMax)
		}()
	}
	r := TrainRefiner(RefinerConfig{Kind: RefinerSingle, Base: narrow}, content, card, enc, db, samples, logMax)
	if r.CardM != card {
		t.Fatal("LPCE-R-Single should keep the cardinality module")
	}
}

func TestRefinedEstimatorExactForExecuted(t *testing.T) {
	db, enc, samples, logMax := fixture(t)
	cfg := RefinerConfig{Kind: RefinerFull, Base: tinyCfg(16), AdjustEpochs: 2, PrefixesPerSample: 2}
	r := trainRefiner(cfg, enc, db, samples, logMax)
	s := samples[3]
	execRoots, _ := PrefixSubtrees(s.Plan, s.Plan.NumNodes()/2)
	var execs []reopt.Executed
	for _, n := range execRoots {
		execs = append(execs, reopt.Executed{Node: n, Card: n.TrueCard})
	}
	est := r.Estimator(s.Query, execs)
	for _, e := range execs {
		if got := est.EstimateSubset(s.Query, e.Mask()); got != e.Card {
			t.Fatalf("executed subset should be exact: got %v want %v", got, e.Card)
		}
	}
	// full-query estimate should be finite and >= 1
	v := est.EstimateSubset(s.Query, s.Query.AllTablesMask())
	if v < 1 || math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("refined full estimate %v invalid", v)
	}
	if est.Name() != "lpce-r" {
		t.Fatalf("name = %s", est.Name())
	}
}

func TestSingleCardsUsesRealForExecuted(t *testing.T) {
	db, enc, samples, logMax := fixture(t)
	cfg := RefinerConfig{Kind: RefinerSingle, Base: tinyCfg(17)}
	r := trainRefiner(cfg, enc, db, samples, logMax)
	s := samples[4]
	execRoots, _ := PrefixSubtrees(s.Plan, 3)
	executed := markExecuted(execRoots)
	cards := r.singleCards(s.Plan, executed)
	for n, isExec := range executed {
		if isExec && cards[n] != n.TrueCard {
			t.Fatalf("executed node card = %v, want real %v", cards[n], n.TrueCard)
		}
	}
}

// TestBuildUnitPlanCoversMask checks the unit tree LPCE-R-Single estimates
// over after half a plan has run: it covers the whole query and keeps every
// executed sub-plan as one of its nodes.
func TestBuildUnitPlanCoversMask(t *testing.T) {
	_, _, samples, _ := fixture(t)
	s := samples[5]
	q := s.Query
	execRoots, _ := PrefixSubtrees(s.Plan, s.Plan.NumNodes()/2)
	if len(execRoots) == 0 {
		t.Fatal("prefix has no executed sub-plans")
	}
	full := q.AllTablesMask()
	root := exec.CanonicalPlan(q, full, execRoots...)
	if root.Tables != full {
		t.Fatalf("unit plan covers %b, want %b", uint32(root.Tables), uint32(full))
	}
	kept := make(map[*plan.Node]bool)
	root.Walk(func(n *plan.Node) { kept[n] = true })
	for _, n := range execRoots {
		if !kept[n] {
			t.Fatalf("executed sub-plan over %b is not in the unit plan", uint32(n.Tables))
		}
	}
}

func TestCardFeatureShapes(t *testing.T) {
	db, enc, samples, logMax := fixture(t)
	feat := CardFeature(enc, logMax, db)
	s := samples[6]
	s.Plan.Walk(func(n *plan.Node) {
		v := feat(n)
		if len(v) != enc.DimWithCards() {
			t.Fatalf("card feature dim = %d, want %d", len(v), enc.DimWithCards())
		}
		for _, x := range v[len(v)-2:] {
			if x < 0 || x > 1 || math.IsNaN(x) {
				t.Fatalf("card slot %v out of range", x)
			}
		}
	})
}

func TestCloneModelIndependence(t *testing.T) {
	_, enc, samples, logMax := fixture(t)
	m := TrainTreeModel(tinyCfg(18), enc, samples[:10], logMax, nil)
	cp := cloneModel(m)
	if cp.NumWeights() != m.NumWeights() {
		t.Fatal("clone changed size")
	}
	cp.Params.All()[0].Val[0] += 1
	if m.Params.All()[0].Val[0] == cp.Params.All()[0].Val[0] {
		t.Fatal("clone aliases parameters")
	}
}
