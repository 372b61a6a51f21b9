package nn

import (
	"math"

	"github.com/lpce-db/lpce/internal/tensor"
)

// The Infer methods are the tape-free forward path used at inference time:
// they evaluate on plain vectors carved from a caller-owned arena and record
// nothing. Each performs the same floating-point operations in the same
// order as its tape counterpart (Apply), so results are bitwise equal; the
// tape path remains the training path and the oracle the equivalence tests
// compare against.

// Infer computes out = Wx + b, exactly as Apply does, with the weight's
// finiteness memo in place of Apply's scan of W on every sparse product.
func (l *Linear) Infer(x, out tensor.Vec) {
	w := tensor.Mat{Rows: l.W.Rows, Cols: l.W.Cols, Data: l.W.Val, Fin: l.W.Fin}
	w.MatVec(x, out)
	out.Add(l.B.Val)
}

// Infer runs the MLP and returns its activated output, carved from a.
func (m *MLP) Infer(a *tensor.Arena, x tensor.Vec) tensor.Vec {
	h := x
	for i, l := range m.Layers {
		out := a.Vec(l.Out())
		l.Infer(h, out)
		act := m.Output
		if i+1 < len(m.Layers) {
			act = m.Hidden
		}
		inferAct(act, out)
		h = out
	}
	return h
}

// inferAct applies the activation in place with the tape ops' arithmetic.
func inferAct(a Activation, v tensor.Vec) {
	switch a {
	case ActReLU:
		ReLU(v)
	case ActSigmoid:
		for i, x := range v {
			v[i] = Sigmoid(x)
		}
	case ActTanh:
		for i, x := range v {
			v[i] = math.Tanh(x)
		}
	}
}

// ReLU clamps v in place as the tape's ReLU does: anything not above zero,
// NaN included, becomes +0.
func ReLU(v tensor.Vec) {
	for i, x := range v {
		if !(x > 0) {
			v[i] = 0
		}
	}
}

// Sigmoid is the logistic function as the tape computes it.
func Sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }
