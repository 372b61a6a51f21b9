package nn

import "math"

// Adam implements the Adam optimizer (the paper trains all models with
// Adam, batch size 50).
type Adam struct {
	LR    float64
	Beta1 float64
	Beta2 float64
	Eps   float64
	step  int
}

// NewAdam returns an Adam optimizer with the conventional defaults and the
// given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one Adam update to every parameter using the accumulated
// gradients, then leaves the gradients untouched (callers ZeroGrad before
// the next accumulation). Products are converted to float64 before they are
// added, so no CPU fuses them and trained weights are the same everywhere.
func (a *Adam) Step(ps *Params) {
	a.step++
	c1 := 1 - math.Pow(a.Beta1, float64(a.step))
	c2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range ps.All() {
		for i, g := range p.Grad {
			p.m[i] = float64(a.Beta1*p.m[i]) + float64((1-a.Beta1)*g)
			p.v[i] = float64(a.Beta2*p.v[i]) + float64((1-a.Beta2)*g*g)
			mHat := p.m[i] / c1
			vHat := p.v[i] / c2
			p.Val[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
		p.Fin.Reset()
	}
}

// StepCount reports how many updates have been applied.
func (a *Adam) StepCount() int { return a.step }
