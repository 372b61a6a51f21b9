package core

import (
	"bytes"
	"math"
	"testing"

	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/tensor"
	"github.com/lpce-db/lpce/internal/workload"
)

func TestTreeModelSaveLoadRoundtrip(t *testing.T) {
	db, enc, samples, logMax := fixture(t)
	m := TrainTreeModel(tinyCfg(51), enc, samples[:15], logMax, nil)

	var buf bytes.Buffer
	if err := SaveTreeModel(&buf, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadTreeModel(&buf, enc)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Cfg != m.Cfg || m2.LogMax != m.LogMax {
		t.Fatal("spec not preserved")
	}
	// identical predictions on a fresh query
	g := workload.NewGenerator(db, 151)
	q := g.Query(3)
	e1 := &TreeEstimator{Label: "a", Model: m, Enc: enc}
	e2 := &TreeEstimator{Label: "b", Model: m2, Enc: enc}
	for mask := query.BitSet(1); mask <= q.AllTablesMask(); mask++ {
		if !q.Connected(mask) {
			continue
		}
		a, b := e1.EstimateSubset(q, mask), e2.EstimateSubset(q, mask)
		if a != b {
			t.Fatalf("loaded model diverges: %v vs %v", a, b)
		}
	}
}

func TestTreeModelFileRoundtrip(t *testing.T) {
	_, enc, samples, logMax := fixture(t)
	m := TrainTreeModel(tinyCfg(52), enc, samples[:10], logMax, nil)
	path := t.TempDir() + "/model.gob"
	if err := SaveTreeModelFile(path, m); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadTreeModelFile(path, enc)
	if err != nil {
		t.Fatal(err)
	}
	if m2.NumWeights() != m.NumWeights() {
		t.Fatal("weight count changed")
	}
}

func TestLoadTreeModelGarbage(t *testing.T) {
	_, enc, _, _ := fixture(t)
	if _, err := LoadTreeModel(bytes.NewReader([]byte("not a model")), enc); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestRefinerSaveLoadRoundtrip(t *testing.T) {
	db, enc, samples, logMax := fixture(t)
	for _, kind := range []RefinerKind{RefinerFull, RefinerSingle, RefinerTwo} {
		cfg := RefinerConfig{Kind: kind, Base: tinyCfg(53), AdjustEpochs: 2, PrefixesPerSample: 2}
		r := TrainRefiner(cfg, enc, db, samples, logMax)
		var buf bytes.Buffer
		if err := SaveRefiner(&buf, r); err != nil {
			t.Fatalf("%v: save: %v", kind, err)
		}
		r2, err := LoadRefiner(&buf, enc, db)
		if err != nil {
			t.Fatalf("%v: load: %v", kind, err)
		}
		if r2.Kind != kind || r2.LogMax != logMax {
			t.Fatalf("%v: spec not preserved", kind)
		}
		// identical refinement estimates
		s := samples[2]
		k := s.Plan.NumNodes() / 2
		q1 := r.EvalPrefix(s, k)
		q2 := r2.EvalPrefix(s, k)
		if len(q1) != len(q2) {
			t.Fatalf("%v: estimate count differs", kind)
		}
		for i := range q1 {
			if math.Abs(q1[i]-q2[i]) > 1e-12 {
				t.Fatalf("%v: loaded refiner diverges at %d: %v vs %v", kind, i, q1[i], q2[i])
			}
		}
	}
}

func TestConnectLayerDeterministicApply(t *testing.T) {
	// loaded connect layers must not depend on their construction seed once
	// weights are overwritten
	c1 := NewConnectLayer(8, 1)
	c2 := NewConnectLayer(8, 99)
	var buf bytes.Buffer
	if err := c1.Params.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c2.Params.Load(&buf); err != nil {
		t.Fatal(err)
	}
	a := tensor.NewVec(8)
	b := tensor.NewVec(8)
	tensor.NewRNG(5).FillNormal(a, 0, 1)
	tensor.NewRNG(6).FillNormal(b, 0, 1)
	out1 := applyConnect(c1, a, b)
	out2 := applyConnect(c2, a, b)
	for i := range out1 {
		if out1[i] != out2[i] {
			t.Fatal("connect layers diverge after weight transfer")
		}
	}
}

func applyConnect(c *ConnectLayer, a, b tensor.Vec) tensor.Vec {
	t := autodiff.NewTape()
	out := c.Apply(t, t.Const(a), t.Const(b))
	return out.Data
}
