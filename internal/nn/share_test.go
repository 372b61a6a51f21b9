package nn

import (
	"testing"

	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/tensor"
)

func TestShareWeightsAliasesValNotGrad(t *testing.T) {
	ps := NewParams()
	rng := tensor.NewRNG(1)
	ps.NewMatParam("w", 3, 4, rng)
	ps.NewVecParam("b", 4)

	rep := ps.ShareWeights()
	if rep.NumWeights() != ps.NumWeights() {
		t.Fatal("replica changed weight count")
	}
	for i, p := range ps.All() {
		r := rep.All()[i]
		if r.Name != p.Name {
			t.Fatalf("param %d renamed: %s vs %s", i, r.Name, p.Name)
		}
		// Weights alias: a write through the master is visible in the
		// replica without copying.
		p.Val[0] = 42
		if r.Val[0] != 42 {
			t.Fatalf("%s: replica does not alias weights", p.Name)
		}
		// Gradients are private: replica accumulation must not leak into
		// the master buffer.
		r.Grad[0] = 7
		if p.Grad[0] == 7 {
			t.Fatalf("%s: replica shares gradient buffer", p.Name)
		}
		// The master's writers reset only the master's finiteness memo, so
		// a replica keeps none.
		if r.Fin != nil {
			t.Fatalf("%s: replica has a finiteness memo", p.Name)
		}
	}
}

func TestMLPShareWeightsResolvesLayers(t *testing.T) {
	ps := NewParams()
	m := NewMLP(ps, "mlp", []int{4, 8, 2}, ActReLU, ActSigmoid, tensor.NewRNG(2))
	rep := m.ShareWeights(ps.ShareWeights())

	x := tensor.NewVec(4)
	tensor.NewRNG(3).FillNormal(x, 0, 1)
	forward := func(mlp *MLP) tensor.Vec {
		tp := autodiff.NewTape()
		return mlp.Apply(tp, tp.Const(x)).Data
	}
	a, b := forward(m), forward(rep)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("shared-weight MLP diverges from master")
		}
	}
}

func TestGradBufferRoundtrip(t *testing.T) {
	ps := NewParams()
	ps.NewMatParam("w", 2, 3, tensor.NewRNG(4))
	ps.NewVecParam("b", 3)
	for i, p := range ps.All() {
		for j := range p.Grad {
			p.Grad[j] = float64(i*10 + j + 1)
		}
	}
	buf := make([]float64, ps.NumWeights())
	if n := ps.CopyGradTo(buf, 0); n != len(buf) {
		t.Fatalf("CopyGradTo wrote %d of %d", n, len(buf))
	}
	dst := ps.ShareWeights()
	if n := dst.AddGradFrom(buf, 0); n != len(buf) {
		t.Fatalf("AddGradFrom read %d of %d", n, len(buf))
	}
	if n := dst.AddGradFrom(buf, 0); n != len(buf) {
		t.Fatal("second accumulation failed")
	}
	for i, p := range ps.All() {
		d := dst.All()[i]
		for j := range p.Grad {
			if d.Grad[j] != 2*p.Grad[j] {
				t.Fatalf("grad[%d][%d] = %v, want %v", i, j, d.Grad[j], 2*p.Grad[j])
			}
		}
	}
}
