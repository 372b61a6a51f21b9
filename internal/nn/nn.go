// Package nn provides the neural-network building blocks used by every
// learned estimator in the repository: parameter registries, linear layers
// and MLPs on the autodiff tape, the Adam optimizer, gradient clipping, and
// gob-based model persistence.
package nn

import (
	"fmt"
	"math"

	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/tensor"
)

// Param is one trainable tensor (matrix or vector) with its gradient and
// Adam moment estimates. Vector parameters use Cols == 1.
type Param struct {
	Name       string
	Rows, Cols int
	Val        tensor.Vec
	Grad       tensor.Vec
	m, v       tensor.Vec // Adam first/second moment estimates

	// Fin memoizes whether Val is all finite for Linear.Infer's sparse
	// products. A writer of Val resets Fin after writing: Adam.Step, a
	// snapshot load and a copy of another model's weights do. A parameter
	// aliasing another's Val, which its owner's writers do not reset, has a
	// nil Fin and is checked on every call.
	Fin *tensor.Finite
}

// Mat views the parameter as a matrix aliasing its storage.
func (p *Param) Mat() *tensor.Mat {
	return &tensor.Mat{Rows: p.Rows, Cols: p.Cols, Data: p.Val}
}

// GradMat views the gradient as a matrix aliasing its storage.
func (p *Param) GradMat() *tensor.Mat {
	return &tensor.Mat{Rows: p.Rows, Cols: p.Cols, Data: p.Grad}
}

// Size returns the number of scalar weights in the parameter.
func (p *Param) Size() int { return len(p.Val) }

// Params is a registry of the parameters of one model. Layers register their
// weights here so the optimizer and the persistence code can reach them.
type Params struct {
	list  []*Param
	names map[string]*Param
}

// NewParams returns an empty registry.
func NewParams() *Params { return &Params{names: make(map[string]*Param)} }

// NewMatParam registers a rows x cols matrix parameter with Xavier init.
func (ps *Params) NewMatParam(name string, rows, cols int, rng *tensor.RNG) *Param {
	p := ps.register(name, rows, cols)
	rng.Xavier(p.Mat())
	return p
}

// NewVecParam registers a zero-initialized vector parameter (typically a
// bias).
func (ps *Params) NewVecParam(name string, n int) *Param {
	return ps.register(name, n, 1)
}

func (ps *Params) register(name string, rows, cols int) *Param {
	if _, dup := ps.names[name]; dup {
		panic(fmt.Sprintf("nn: duplicate parameter %q", name))
	}
	n := rows * cols
	p := &Param{
		Name: name, Rows: rows, Cols: cols,
		Val: tensor.NewVec(n), Grad: tensor.NewVec(n),
		m: tensor.NewVec(n), v: tensor.NewVec(n),
		Fin: new(tensor.Finite),
	}
	ps.list = append(ps.list, p)
	ps.names[name] = p
	return p
}

// All returns the registered parameters in registration order.
func (ps *Params) All() []*Param { return ps.list }

// ShareWeights returns a registry whose parameters alias this registry's
// values but own private, zeroed gradient buffers. Data-parallel training
// workers run forward/backward on such replicas: weight reads see the
// master's current values while gradient writes stay private to the
// worker. Replicas carry no optimizer state and must not be passed to
// Adam.Step; only the master registry is stepped. Nor do they share the
// master's finiteness memo: theirs is nil.
func (ps *Params) ShareWeights() *Params {
	out := NewParams()
	for _, p := range ps.list {
		np := &Param{
			Name: p.Name, Rows: p.Rows, Cols: p.Cols,
			Val: p.Val, Grad: tensor.NewVec(len(p.Grad)),
		}
		out.list = append(out.list, np)
		out.names[np.Name] = np
	}
	return out
}

// CopyGradTo copies every gradient into buf contiguously in registration
// order and returns the number of scalars written. buf must hold at least
// NumWeights() elements from off.
func (ps *Params) CopyGradTo(buf []float64, off int) int {
	for _, p := range ps.list {
		off += copy(buf[off:], p.Grad)
	}
	return off
}

// AddGradFrom accumulates a flat gradient previously produced by
// CopyGradTo into the registry's gradients and returns the new offset.
func (ps *Params) AddGradFrom(buf []float64, off int) int {
	for _, p := range ps.list {
		p.Grad.Add(buf[off : off+len(p.Grad)])
		off += len(p.Grad)
	}
	return off
}

// Get returns the parameter with the given name, or nil.
func (ps *Params) Get(name string) *Param { return ps.names[name] }

// ZeroGrad clears every gradient, called once per optimizer step.
func (ps *Params) ZeroGrad() {
	for _, p := range ps.list {
		p.Grad.Zero()
	}
}

// NumWeights returns the total number of scalar weights, used to report
// model sizes (the paper compresses LPCE-I >10x via distillation).
func (ps *Params) NumWeights() int {
	n := 0
	for _, p := range ps.list {
		n += p.Size()
	}
	return n
}

// ClipGrad scales all gradients so their global L2 norm is at most maxNorm.
// Tree-recurrent models (deep 8-join plans) occasionally produce exploding
// gradients; clipping keeps Adam stable.
func (ps *Params) ClipGrad(maxNorm float64) {
	var total float64
	for _, p := range ps.list {
		total += p.Grad.Dot(p.Grad)
	}
	norm := math.Sqrt(total)
	if norm <= maxNorm || norm == 0 {
		return
	}
	scale := maxNorm / norm
	for _, p := range ps.list {
		p.Grad.Scale(scale)
	}
}

// Linear is a fully-connected layer y = Wx + b.
type Linear struct {
	W, B *Param
}

// NewLinear registers a Linear layer mapping in -> out features.
func NewLinear(ps *Params, name string, in, out int, rng *tensor.RNG) *Linear {
	return &Linear{
		W: ps.NewMatParam(name+".W", out, in, rng),
		B: ps.NewVecParam(name+".b", out),
	}
}

// Apply runs the layer on the tape.
func (l *Linear) Apply(t *autodiff.Tape, x *autodiff.Node) *autodiff.Node {
	out := t.NewNode(l.W.Rows)
	l.W.Mat().MatVec(x.Data, out.Data)
	out.Data.Add(l.B.Val)
	t.Record(func() {
		l.W.GradMat().AddOuter(1, out.Grad, x.Data)
		l.W.Mat().MatVecT(out.Grad, x.Grad)
		l.B.Grad.Add(out.Grad)
	})
	return out
}

// In and Out report the layer's feature dimensions.
func (l *Linear) In() int  { return l.W.Cols }
func (l *Linear) Out() int { return l.W.Rows }

// Activation selects the nonlinearity applied between MLP layers.
type Activation int

// Supported activations.
const (
	ActNone Activation = iota
	ActReLU
	ActSigmoid
	ActTanh
)

func applyAct(t *autodiff.Tape, a Activation, x *autodiff.Node) *autodiff.Node {
	switch a {
	case ActReLU:
		return t.ReLU(x)
	case ActSigmoid:
		return t.Sigmoid(x)
	case ActTanh:
		return t.Tanh(x)
	default:
		return x
	}
}

// MLP is a stack of Linear layers with a hidden activation between layers
// and an optional output activation. The paper's embed module is a 2-layer
// ReLU MLP and its output module a 2-layer MLP with sigmoid output.
type MLP struct {
	Layers []*Linear
	Hidden Activation
	Output Activation
}

// NewMLP registers an MLP with the given layer widths, e.g. dims =
// [in, hidden, out] builds two linear layers.
func NewMLP(ps *Params, name string, dims []int, hidden, output Activation, rng *tensor.RNG) *MLP {
	if len(dims) < 2 {
		panic("nn: MLP needs at least an input and output dimension")
	}
	m := &MLP{Hidden: hidden, Output: output}
	for i := 0; i+1 < len(dims); i++ {
		m.Layers = append(m.Layers,
			NewLinear(ps, fmt.Sprintf("%s.%d", name, i), dims[i], dims[i+1], rng))
	}
	return m
}

// ShareWeights rebuilds the MLP over a replica registry produced by
// Params.ShareWeights, resolving each layer's parameters by name. Training
// workers use it to run forward/backward against shared weights with
// private gradients.
func (m *MLP) ShareWeights(ps *Params) *MLP {
	out := &MLP{Hidden: m.Hidden, Output: m.Output}
	for _, l := range m.Layers {
		out.Layers = append(out.Layers, &Linear{W: ps.Get(l.W.Name), B: ps.Get(l.B.Name)})
	}
	return out
}

// Apply runs the MLP on the tape, returning the post-activation output.
func (m *MLP) Apply(t *autodiff.Tape, x *autodiff.Node) *autodiff.Node {
	h := x
	for i, l := range m.Layers {
		h = l.Apply(t, h)
		if i+1 < len(m.Layers) {
			h = applyAct(t, m.Hidden, h)
		} else {
			h = applyAct(t, m.Output, h)
		}
	}
	return h
}

// ApplyPreOutput runs the MLP but returns both the final pre-activation
// logit and the activated output. Knowledge distillation (Eq. 5) matches the
// logit before the sigmoid.
func (m *MLP) ApplyPreOutput(t *autodiff.Tape, x *autodiff.Node) (logit, out *autodiff.Node) {
	h := x
	for i, l := range m.Layers {
		h = l.Apply(t, h)
		if i+1 < len(m.Layers) {
			h = applyAct(t, m.Hidden, h)
		}
	}
	return h, applyAct(t, m.Output, h)
}
