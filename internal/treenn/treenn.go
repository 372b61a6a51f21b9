// Package treenn implements the tree-structured recurrent models that
// process execution plans bottom-up: the SRU cell of LPCE (paper Eq. 1) and
// the child-sum tree-LSTM used by the TLSTM baseline. A TreeModel combines
// an embed MLP, a recurrent cell, and an output MLP — the three modules of
// Figure 6 — and exposes per-node cardinality predictions for the node-wise
// loss.
package treenn

import (
	"fmt"

	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/nn"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/tensor"
)

// CellKind selects the recurrent cell.
type CellKind int

// Supported cells.
const (
	CellSRU CellKind = iota
	CellLSTM
)

func (k CellKind) String() string {
	if k == CellLSTM {
		return "lstm"
	}
	return "sru"
}

// Cell computes a node's encoding c and representation h from its embedded
// input x and the encodings/representations of its children (zero vectors
// at leaves). Apply records on a tape for training; Infer writes the same
// values into c and h without one, using a for scratch.
type Cell interface {
	Apply(t *autodiff.Tape, x, cl, cr *autodiff.Node) (c, h *autodiff.Node)
	Infer(a *tensor.Arena, x, cl, cr, c, h tensor.Vec)
	Hidden() int
}

// SRUCell implements Eq. 1 of the paper:
//
//	x̃ = Wx·x
//	f = σ(Wf·x + bf)
//	r = σ(Wr·x + br)
//	c = f ⊙ (cl + cr) + (1−f) ⊙ x̃
//	h = r ⊙ tanh(c) + (1−r) ⊙ x
//
// Only 3 matrix multiplications versus the LSTM's 8, and all three depend
// only on x, which is what makes SRU faster than LSTM in the paper's
// Figure 19.
type SRUCell struct {
	wx, wf, wr *nn.Linear
	hidden     int
}

// NewSRUCell registers an SRU cell with the given hidden width. The
// embedded input x must have the same width (the highway term (1−r)⊙x
// requires it).
func NewSRUCell(ps *nn.Params, name string, hidden int, rng *tensor.RNG) *SRUCell {
	return &SRUCell{
		wx:     nn.NewLinear(ps, name+".wx", hidden, hidden, rng),
		wf:     nn.NewLinear(ps, name+".wf", hidden, hidden, rng),
		wr:     nn.NewLinear(ps, name+".wr", hidden, hidden, rng),
		hidden: hidden,
	}
}

// Hidden implements Cell.
func (s *SRUCell) Hidden() int { return s.hidden }

// Apply implements Cell.
func (s *SRUCell) Apply(t *autodiff.Tape, x, cl, cr *autodiff.Node) (c, h *autodiff.Node) {
	xt := s.wx.Apply(t, x)
	f := t.Sigmoid(s.wf.Apply(t, x))
	r := t.Sigmoid(s.wr.Apply(t, x))
	c = t.Add(t.Mul(f, t.Add(cl, cr)), t.Mul(t.OneMinus(f), xt))
	h = t.Add(t.Mul(r, t.Tanh(c)), t.Mul(t.OneMinus(r), x))
	return c, h
}

// LSTMCell is a child-sum tree-LSTM (Tai et al.), the backbone of the
// TLSTM baseline [30]:
//
//	i  = σ(Wi·x + Ui·(hl+hr) + bi)
//	fl = σ(Wf·x + Uf·hl + bf),  fr = σ(Wf·x + Uf·hr + bf)
//	o  = σ(Wo·x + Uo·(hl+hr) + bo)
//	u  = tanh(Wu·x + Uu·(hl+hr) + bu)
//	c  = i ⊙ u + fl ⊙ cl + fr ⊙ cr
//	h  = o ⊙ tanh(c)
type LSTMCell struct {
	wi, ui *nn.Linear
	wf, uf *nn.Linear
	wo, uo *nn.Linear
	wu, uu *nn.Linear
	hidden int
}

// NewLSTMCell registers a tree-LSTM cell.
func NewLSTMCell(ps *nn.Params, name string, hidden int, rng *tensor.RNG) *LSTMCell {
	l := &LSTMCell{hidden: hidden}
	l.wi = nn.NewLinear(ps, name+".wi", hidden, hidden, rng)
	l.ui = nn.NewLinear(ps, name+".ui", hidden, hidden, rng)
	l.wf = nn.NewLinear(ps, name+".wf", hidden, hidden, rng)
	l.uf = nn.NewLinear(ps, name+".uf", hidden, hidden, rng)
	l.wo = nn.NewLinear(ps, name+".wo", hidden, hidden, rng)
	l.uo = nn.NewLinear(ps, name+".uo", hidden, hidden, rng)
	l.wu = nn.NewLinear(ps, name+".wu", hidden, hidden, rng)
	l.uu = nn.NewLinear(ps, name+".uu", hidden, hidden, rng)
	return l
}

// Hidden implements Cell.
func (l *LSTMCell) Hidden() int { return l.hidden }

// Apply implements Cell. The children's h states are not threaded
// separately through our Cell interface; like the SRU we treat the child
// encodings cl, cr as carrying the child state (for the LSTM this is the
// concatenation trick of using c as both — we pass children's h via c,
// which keeps both cells plug-compatible and matches the paper's usage
// where only c flows upward in Figure 6).
func (l *LSTMCell) Apply(t *autodiff.Tape, x, cl, cr *autodiff.Node) (c, h *autodiff.Node) {
	hsum := t.Add(cl, cr)
	i := t.Sigmoid(t.Add(l.wi.Apply(t, x), l.ui.Apply(t, hsum)))
	fl := t.Sigmoid(t.Add(l.wf.Apply(t, x), l.uf.Apply(t, cl)))
	fr := t.Sigmoid(t.Add(l.wf.Apply(t, x), l.uf.Apply(t, cr)))
	o := t.Sigmoid(t.Add(l.wo.Apply(t, x), l.uo.Apply(t, hsum)))
	u := t.Tanh(t.Add(l.wu.Apply(t, x), l.uu.Apply(t, hsum)))
	c = t.Add(t.Mul(i, u), t.Add(t.Mul(fl, cl), t.Mul(fr, cr)))
	h = t.Mul(o, t.Tanh(c))
	return c, h
}

// Config describes a TreeModel's architecture.
type Config struct {
	InputDim int      // feature dimension
	Hidden   int      // embed output and cell width
	OutWidth int      // hidden width of the output MLP
	Cell     CellKind // SRU or LSTM
	Seed     int64
}

// TreeModel is the full estimator of Figure 6: embed MLP → recurrent cell
// over the plan tree → output MLP with sigmoid producing the normalized
// log-cardinality.
type TreeModel struct {
	Cfg    Config
	Params *nn.Params
	Embed  *nn.MLP
	Cell   Cell
	Out    *nn.MLP
	// LogMax is ln of the maximum cardinality in the training set; the
	// sigmoid output is interpreted as ln(card)/LogMax.
	LogMax float64
}

// NewTreeModel builds a model with fresh parameters.
func NewTreeModel(cfg Config) *TreeModel {
	ps := nn.NewParams()
	rng := tensor.NewRNG(cfg.Seed)
	m := &TreeModel{Cfg: cfg, Params: ps}
	m.Embed = nn.NewMLP(ps, "embed", []int{cfg.InputDim, cfg.Hidden, cfg.Hidden}, nn.ActReLU, nn.ActReLU, rng)
	switch cfg.Cell {
	case CellLSTM:
		m.Cell = NewLSTMCell(ps, "cell", cfg.Hidden, rng)
	default:
		m.Cell = NewSRUCell(ps, "cell", cfg.Hidden, rng)
	}
	m.Out = nn.NewMLP(ps, "out", []int{cfg.Hidden, cfg.OutWidth, 1}, nn.ActReLU, nn.ActSigmoid, rng)
	return m
}

// Replica returns a model that shares this model's weights but owns
// private gradient buffers. Training workers forward/backward on replicas
// concurrently: weight reads observe the master's current values (updates
// by the optimizer between batches are visible immediately), while each
// replica's gradients stay private until the trainer reduces them. The
// replica must not be stepped by an optimizer.
func (m *TreeModel) Replica() *TreeModel {
	r := NewTreeModel(m.Cfg)
	r.LogMax = m.LogMax
	src, dst := m.Params.All(), r.Params.All()
	for i := range dst {
		dst[i].Val = src[i].Val
		dst[i].Fin = nil // the master's writers do not reset this memo
	}
	return r
}

// NodeOut holds the tape nodes produced for one plan operator.
type NodeOut struct {
	X     *autodiff.Node // embedded input (embed module output)
	C     *autodiff.Node // node encoding passed to the parent
	H     *autodiff.Node // node representation
	Logit *autodiff.Node // pre-sigmoid output (distillation target)
	Pred  *autodiff.Node // sigmoid output in [0,1]
}

// Card converts the prediction to a cardinality.
func (o *NodeOut) Card(logMax float64) float64 {
	return nn.DenormalizeCard(o.Pred.Scalar(), logMax)
}

// FeatureFn supplies the feature vector for a plan node; different callers
// plug in the plain encoding or the cardinality-augmented one.
type FeatureFn func(n *plan.Node) tensor.Vec

// Forward runs the model over a plan tree, returning the outputs per node
// in post-order. childC optionally overrides the encoding of specific
// subtrees (LPCE-R's refine module substitutes the connect-layer embedding
// of executed sub-plans); when a node is present in childC its subtree is
// not descended.
func (m *TreeModel) Forward(t *autodiff.Tape, root *plan.Node, feat FeatureFn, childC map[*plan.Node]*autodiff.Node) map[*plan.Node]*NodeOut {
	outs := make(map[*plan.Node]*NodeOut)
	m.forward(t, root, feat, childC, outs)
	return outs
}

func (m *TreeModel) forward(t *autodiff.Tape, n *plan.Node, feat FeatureFn, childC map[*plan.Node]*autodiff.Node, outs map[*plan.Node]*NodeOut) *autodiff.Node {
	if c, ok := childC[n]; ok {
		return c
	}
	zero := t.NewNode(m.Cell.Hidden())
	cl, cr := zero, zero
	if n.Left != nil {
		cl = m.forward(t, n.Left, feat, childC, outs)
	}
	if n.Right != nil {
		cr = m.forward(t, n.Right, feat, childC, outs)
	}
	fv := feat(n)
	if len(fv) != m.Cfg.InputDim {
		panic(fmt.Sprintf("treenn: feature dim %d, model expects %d", len(fv), m.Cfg.InputDim))
	}
	x := m.Embed.Apply(t, t.Input(fv))
	c, h := m.Cell.Apply(t, x, cl, cr)
	logit, pred := m.Out.ApplyPreOutput(t, h)
	outs[n] = &NodeOut{X: x, C: c, H: h, Logit: logit, Pred: pred}
	return c
}

// NumWeights reports the model size (the paper's >10x compression claim is
// checked against this).
func (m *TreeModel) NumWeights() int { return m.Params.NumWeights() }
