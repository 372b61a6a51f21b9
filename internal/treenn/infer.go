package treenn

import (
	"fmt"
	"math"

	"github.com/lpce-db/lpce/internal/nn"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/tensor"
)

// This file is the tape-free inference path of the tree models. Every
// function evaluates the same floating-point operations in the same order as
// the tape ops in Forward, so results are bitwise equal to the training
// path's; products feeding a sum are wrapped in float64(...) because the Go
// spec lets a compiler fuse x*y+z into one rounding (arm64, GOAMD64=v3)
// unless an explicit conversion separates them, and the tape never fuses —
// its ops store each intermediate.

// Infer implements Cell.
func (s *SRUCell) Infer(a *tensor.Arena, x, cl, cr, c, h tensor.Vec) {
	n := s.hidden
	xt, f, r := a.Vec(n), a.Vec(n), a.Vec(n)
	s.wx.Infer(x, xt)
	s.wf.Infer(x, f)
	s.wr.Infer(x, r)
	for i := range c {
		fi, ri := nn.Sigmoid(f[i]), nn.Sigmoid(r[i])
		ci := float64(fi*(cl[i]+cr[i])) + float64((1-fi)*xt[i])
		c[i] = ci
		h[i] = float64(ri*math.Tanh(ci)) + float64((1-ri)*x[i])
	}
}

// Infer implements Cell.
func (l *LSTMCell) Infer(a *tensor.Arena, x, cl, cr, c, h tensor.Vec) {
	n := l.hidden
	hsum := a.Vec(n)
	for i := range hsum {
		hsum[i] = cl[i] + cr[i]
	}
	// gate returns W·x + U·s, each side with its bias, before activation.
	wx, us := a.Vec(n), a.Vec(n)
	gate := func(w, u *nn.Linear, s tensor.Vec) tensor.Vec {
		w.Infer(x, wx)
		u.Infer(s, us)
		g := a.Vec(n)
		for i := range g {
			g[i] = wx[i] + us[i]
		}
		return g
	}
	gi := gate(l.wi, l.ui, hsum)
	gfl := gate(l.wf, l.uf, cl)
	gfr := gate(l.wf, l.uf, cr)
	gout := gate(l.wo, l.uo, hsum)
	gu := gate(l.wu, l.uu, hsum)
	for i := range c {
		in, fl, fr := nn.Sigmoid(gi[i]), nn.Sigmoid(gfl[i]), nn.Sigmoid(gfr[i])
		ci := float64(in*math.Tanh(gu[i])) + (float64(fl*cl[i]) + float64(fr*cr[i]))
		c[i] = ci
		h[i] = nn.Sigmoid(gout[i]) * math.Tanh(ci)
	}
}

// InferNode evaluates one plan operator: it embeds the feature vector,
// applies the cell to the children's encodings (nil stands for the zero
// vector of a missing child), writes the node encoding into c and returns
// the node representation h carved from a. c may be long-lived storage.
func (m *TreeModel) InferNode(a *tensor.Arena, feat, cl, cr, c tensor.Vec) (h tensor.Vec) {
	if len(feat) != m.Cfg.InputDim {
		panic(fmt.Sprintf("treenn: feature dim %d, model expects %d", len(feat), m.Cfg.InputDim))
	}
	if cl == nil || cr == nil {
		zero := a.Zeros(m.Cfg.Hidden)
		if cl == nil {
			cl = zero
		}
		if cr == nil {
			cr = zero
		}
	}
	x := m.Embed.Infer(a, feat)
	h = a.Vec(m.Cfg.Hidden)
	m.Cell.Infer(a, x, cl, cr, c, h)
	return h
}

// InferCard maps a node representation to its estimated cardinality through
// the output module.
func (m *TreeModel) InferCard(a *tensor.Arena, h tensor.Vec) float64 {
	return nn.DenormalizeCard(m.Out.Infer(a, h)[0], m.LogMax)
}

// Encode evaluates the subtree rooted at n bottom-up and returns its root's
// encoding and representation, both carved from a.
func (m *TreeModel) Encode(a *tensor.Arena, n *plan.Node, feat FeatureFn) (c, h tensor.Vec) {
	var cl, cr tensor.Vec
	if n.Left != nil {
		cl, _ = m.Encode(a, n.Left, feat)
	}
	if n.Right != nil {
		cr, _ = m.Encode(a, n.Right, feat)
	}
	c = a.Vec(m.Cfg.Hidden)
	return c, m.InferNode(a, feat(n), cl, cr, c)
}

// Predict runs an inference-only forward pass and returns the estimated
// cardinality of the root.
func (m *TreeModel) Predict(root *plan.Node, feat FeatureFn) float64 {
	a := tensor.NewArena(0)
	_, h := m.Encode(a, root, feat)
	return m.InferCard(a, h)
}
