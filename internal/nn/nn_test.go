package nn

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"

	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/tensor"
)

func TestLinearForwardShape(t *testing.T) {
	ps := NewParams()
	rng := tensor.NewRNG(1)
	l := NewLinear(ps, "l", 3, 5, rng)
	if l.In() != 3 || l.Out() != 5 {
		t.Fatalf("dims = %d->%d", l.In(), l.Out())
	}
	tp := autodiff.NewTape()
	out := l.Apply(tp, tp.Input(tensor.Vec{1, 2, 3}))
	if out.Len() != 5 {
		t.Fatalf("out len = %d", out.Len())
	}
}

func TestLinearGradient(t *testing.T) {
	ps := NewParams()
	rng := tensor.NewRNG(2)
	l := NewLinear(ps, "l", 4, 3, rng)
	x := tensor.Vec{0.5, -1, 2, 0.1}

	run := func() float64 {
		tp := autodiff.NewTape()
		in := tp.Input(x)
		out := tp.Sum(tp.Sigmoid(l.Apply(tp, in)))
		return out.Scalar()
	}

	tp := autodiff.NewTape()
	in := tp.Input(x)
	out := tp.Sum(tp.Sigmoid(l.Apply(tp, in)))
	ps.ZeroGrad()
	tp.Backward(out)

	const h = 1e-6
	// check weight gradients numerically
	for _, p := range ps.All() {
		for i := range p.Val {
			orig := p.Val[i]
			p.Val[i] = orig + h
			fp := run()
			p.Val[i] = orig - h
			fm := run()
			p.Val[i] = orig
			want := (fp - fm) / (2 * h)
			if math.Abs(p.Grad[i]-want) > 1e-4*(1+math.Abs(want)) {
				t.Fatalf("%s grad[%d] = %v, numeric %v", p.Name, i, p.Grad[i], want)
			}
		}
	}
	// check input gradient numerically
	for i := range x {
		orig := x[i]
		x[i] = orig + h
		fp := run()
		x[i] = orig - h
		fm := run()
		x[i] = orig
		want := (fp - fm) / (2 * h)
		if math.Abs(in.Grad[i]-want) > 1e-4*(1+math.Abs(want)) {
			t.Fatalf("input grad[%d] = %v, numeric %v", i, in.Grad[i], want)
		}
	}
}

func TestMLPStructure(t *testing.T) {
	ps := NewParams()
	rng := tensor.NewRNG(3)
	m := NewMLP(ps, "mlp", []int{6, 8, 1}, ActReLU, ActSigmoid, rng)
	if len(m.Layers) != 2 {
		t.Fatalf("layers = %d", len(m.Layers))
	}
	tp := autodiff.NewTape()
	in := tp.Input(tensor.NewVec(6))
	out := m.Apply(tp, in)
	if out.Len() != 1 {
		t.Fatalf("out len = %d", out.Len())
	}
	if s := out.Scalar(); s < 0 || s > 1 {
		t.Fatalf("sigmoid output %v outside [0,1]", s)
	}
}

func TestMLPPreOutputLogit(t *testing.T) {
	ps := NewParams()
	rng := tensor.NewRNG(4)
	m := NewMLP(ps, "mlp", []int{4, 6, 1}, ActReLU, ActSigmoid, rng)
	tp := autodiff.NewTape()
	x := tp.Input(tensor.Vec{1, -1, 0.5, 2})
	logit, out := m.ApplyPreOutput(tp, x)
	want := 1 / (1 + math.Exp(-logit.Scalar()))
	if math.Abs(out.Scalar()-want) > 1e-12 {
		t.Fatalf("sigmoid(logit) = %v, out = %v", want, out.Scalar())
	}
}

func TestAdamReducesLoss(t *testing.T) {
	// Fit y = sigmoid output to a fixed target from a fixed input; loss must
	// fall monotonically-ish and reach near zero.
	ps := NewParams()
	rng := tensor.NewRNG(5)
	m := NewMLP(ps, "m", []int{3, 16, 1}, ActReLU, ActSigmoid, rng)
	opt := NewAdam(0.01)
	x := tensor.Vec{0.2, -0.8, 1.5}
	const target = 0.73
	var first, last float64
	for epoch := 0; epoch < 400; epoch++ {
		tp := autodiff.NewTape()
		out := m.Apply(tp, tp.Input(x))
		diff := out.Scalar() - target
		loss := diff * diff
		if epoch == 0 {
			first = loss
		}
		last = loss
		ps.ZeroGrad()
		out.Grad[0] = 2 * diff
		tp.BackwardFrom()
		opt.Step(ps)
	}
	if last > first/100 || last > 1e-4 {
		t.Fatalf("Adam failed to fit: first %v, last %v", first, last)
	}
	if opt.StepCount() != 400 {
		t.Fatalf("step count = %d", opt.StepCount())
	}
}

func TestClipGrad(t *testing.T) {
	ps := NewParams()
	p := ps.NewVecParam("v", 3)
	copy(p.Grad, tensor.Vec{3, 4, 0}) // norm 5
	ps.ClipGrad(1)
	if n := p.Grad.Norm2(); math.Abs(n-1) > 1e-12 {
		t.Fatalf("clipped norm = %v", n)
	}
	// below-threshold gradients are untouched
	copy(p.Grad, tensor.Vec{0.1, 0, 0})
	ps.ClipGrad(1)
	if p.Grad[0] != 0.1 {
		t.Fatal("clip modified small gradient")
	}
}

func TestParamsRegistry(t *testing.T) {
	ps := NewParams()
	rng := tensor.NewRNG(6)
	ps.NewMatParam("w", 2, 3, rng)
	ps.NewVecParam("b", 2)
	if ps.NumWeights() != 8 {
		t.Fatalf("weights = %d", ps.NumWeights())
	}
	if ps.Get("w") == nil || ps.Get("missing") != nil {
		t.Fatal("Get lookup broken")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected duplicate-name panic")
		}
	}()
	ps.NewVecParam("w", 1)
}

func TestSaveLoadRoundtrip(t *testing.T) {
	build := func(seed int64) *Params {
		ps := NewParams()
		rng := tensor.NewRNG(seed)
		NewMLP(ps, "m", []int{4, 8, 1}, ActReLU, ActSigmoid, rng)
		return ps
	}
	src := build(7)
	dst := build(99) // different init
	var buf bytes.Buffer
	if err := src.EncodeGob(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	if err := dst.DecodeGob(gob.NewDecoder(&buf)); err != nil {
		t.Fatal(err)
	}
	for i, p := range src.All() {
		q := dst.All()[i]
		for j := range p.Val {
			if p.Val[j] != q.Val[j] {
				t.Fatalf("param %s[%d] mismatch after load", p.Name, j)
			}
		}
	}
}

func TestLoadShapeMismatch(t *testing.T) {
	ps1 := NewParams()
	ps1.NewVecParam("b", 3)
	var buf bytes.Buffer
	if err := ps1.EncodeGob(gob.NewEncoder(&buf)); err != nil {
		t.Fatal(err)
	}
	ps2 := NewParams()
	ps2.NewVecParam("b", 4)
	if err := ps2.DecodeGob(gob.NewDecoder(&buf)); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

// TestLoadRejectsIncompleteSnapshot: a snapshot that leaves a parameter at
// its initial value, or whose weights do not fill the declared shape, is
// rejected and overwrites nothing.
func TestLoadRejectsIncompleteSnapshot(t *testing.T) {
	var partial bytes.Buffer
	ps1 := NewParams()
	ps1.NewVecParam("a", 2).Val[0] = 5
	if err := ps1.EncodeGob(gob.NewEncoder(&partial)); err != nil {
		t.Fatal(err)
	}
	ps2 := NewParams()
	a := ps2.NewVecParam("a", 2)
	ps2.NewVecParam("b", 2)
	if err := ps2.DecodeGob(gob.NewDecoder(&partial)); err == nil {
		t.Fatal("snapshot missing parameter b loaded")
	}
	if a.Val[0] != 0 {
		t.Fatalf("rejected snapshot overwrote a: %v", a.Val)
	}

	var short bytes.Buffer
	ps1.All()[0].Val = ps1.All()[0].Val[:1] // declared 2x1, one weight
	if err := ps1.EncodeGob(gob.NewEncoder(&short)); err != nil {
		t.Fatal(err)
	}
	ps3 := NewParams()
	ps3.NewVecParam("a", 2)
	if err := ps3.DecodeGob(gob.NewDecoder(&short)); err == nil {
		t.Fatal("snapshot with too few weights loaded")
	}
}

func TestNormalizeDenormalizeRoundtrip(t *testing.T) {
	logMax := math.Log(1e6)
	for _, card := range []float64{1, 10, 1234, 99999, 1e6} {
		p := NormalizeCard(card, logMax)
		back := DenormalizeCard(p, logMax)
		if math.Abs(math.Log(back)-math.Log(card)) > 1e-9 {
			t.Fatalf("roundtrip %v -> %v -> %v", card, p, back)
		}
	}
	if NormalizeCard(0.5, logMax) != 0 {
		t.Fatal("cards below 1 should clamp to 0")
	}
	if NormalizeCard(1e9, logMax) != 1 {
		t.Fatal("cards above max should clamp to 1")
	}
}

// TestQError pins the q-error convention the loss tests below measure
// QErrorLoss against: symmetric, and both cardinalities clamped to ≥ 1.
func TestQError(t *testing.T) {
	if q := obs.QError(100, 10); q != 10 {
		t.Fatalf("q = %v", q)
	}
	if q := obs.QError(10, 100); q != 10 {
		t.Fatalf("q = %v", q)
	}
	if q := obs.QError(5, 5); q != 1 {
		t.Fatalf("q = %v", q)
	}
	if q := obs.QError(0, 0); q != 1 {
		t.Fatalf("q with zero cards = %v", q)
	}
}

func TestQErrorLossValueAndGradient(t *testing.T) {
	logMax := math.Log(1e6)
	trueCard := 500.0
	for _, predVal := range []float64{0.1, 0.45, 0.9} {
		tp := autodiff.NewTape()
		pred := tp.Input(tensor.Vec{predVal})
		loss := QErrorLoss(tp, pred, trueCard, logMax)
		est := DenormalizeCard(predVal, logMax)
		if want := obs.QError(trueCard, est); math.Abs(loss.Scalar()-want) > 1e-6*want {
			t.Fatalf("loss = %v, want %v", loss.Scalar(), want)
		}
		tp.Backward(loss)
		// numeric gradient
		const h = 1e-7
		f := func(p float64) float64 {
			tp2 := autodiff.NewTape()
			return QErrorLoss(tp2, tp2.Input(tensor.Vec{p}), trueCard, logMax).Scalar()
		}
		want := (f(predVal+h) - f(predVal-h)) / (2 * h)
		if math.Abs(pred.Grad[0]-want) > 1e-3*(1+math.Abs(want)) {
			t.Fatalf("pred %v: grad = %v, numeric %v", predVal, pred.Grad[0], want)
		}
	}
}

func TestQErrorLossGradientDirection(t *testing.T) {
	// Underestimation must push the prediction up, overestimation down.
	logMax := math.Log(1e6)
	tp := autodiff.NewTape()
	low := tp.Input(tensor.Vec{0.1}) // estimates ~4, true 1000 → under
	loss := QErrorLoss(tp, low, 1000, logMax)
	tp.Backward(loss)
	if low.Grad[0] >= 0 {
		t.Fatalf("underestimate should have negative gradient (increase pred), got %v", low.Grad[0])
	}
	tp2 := autodiff.NewTape()
	high := tp2.Input(tensor.Vec{0.9})
	loss2 := QErrorLoss(tp2, high, 10, logMax)
	tp2.Backward(loss2)
	if high.Grad[0] <= 0 {
		t.Fatalf("overestimate should have positive gradient (decrease pred), got %v", high.Grad[0])
	}
}
