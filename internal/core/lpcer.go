package core

import (
	"fmt"

	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/nn"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/tensor"
	"github.com/lpce-db/lpce/internal/treenn"
)

// RefinerKind selects the LPCE-R architecture: the paper's full three-module
// design or the two ablations of Table 3.
type RefinerKind int

// Refiner variants.
const (
	// RefinerFull is LPCE-R: content + cardinality modules merged by a
	// learned connect layer feeding the refine module.
	RefinerFull RefinerKind = iota
	// RefinerSingle is LPCE-R-Single: one cardinality-augmented module;
	// executed operators use real cardinalities, remaining operators use
	// the model's own estimates.
	RefinerSingle
	// RefinerTwo is LPCE-R-Two: cardinality module + refine module, no
	// content module and no connect layer.
	RefinerTwo
)

func (k RefinerKind) String() string {
	switch k {
	case RefinerSingle:
		return "lpce-r-single"
	case RefinerTwo:
		return "lpce-r-two"
	default:
		return "lpce-r"
	}
}

// ConnectLayer merges the content embedding c_A and the cardinality
// embedding c_B of an executed sub-plan (paper Eq. 6):
//
//	w_A = σ(W_A·c_A + b_A),  w_B = σ(W_B·c_B + b_B)
//	c_AB = ReLU(W_AB(w_A ⊙ c_A + w_B ⊙ c_B) + b_AB)
type ConnectLayer struct {
	Params       *nn.Params
	wa, wb, wout *nn.Linear
}

// NewConnectLayer builds a connect layer over hidden-width embeddings.
func NewConnectLayer(hidden int, seed int64) *ConnectLayer {
	ps := nn.NewParams()
	rng := tensor.NewRNG(seed)
	return &ConnectLayer{
		Params: ps,
		wa:     nn.NewLinear(ps, "connect.wa", hidden, hidden, rng),
		wb:     nn.NewLinear(ps, "connect.wb", hidden, hidden, rng),
		wout:   nn.NewLinear(ps, "connect.wout", hidden, hidden, rng),
	}
}

// Replica returns a connect layer sharing this layer's weights with private
// gradient buffers, for data-parallel adjustment workers. Like
// treenn.TreeModel.Replica, it must not be stepped by an optimizer.
func (c *ConnectLayer) Replica() *ConnectLayer {
	ps := c.Params.ShareWeights()
	return &ConnectLayer{
		Params: ps,
		wa:     &nn.Linear{W: ps.Get("connect.wa.W"), B: ps.Get("connect.wa.b")},
		wb:     &nn.Linear{W: ps.Get("connect.wb.W"), B: ps.Get("connect.wb.b")},
		wout:   &nn.Linear{W: ps.Get("connect.wout.W"), B: ps.Get("connect.wout.b")},
	}
}

// Apply merges the two embeddings on the tape.
func (c *ConnectLayer) Apply(t *autodiff.Tape, cA, cB *autodiff.Node) *autodiff.Node {
	wA := t.Sigmoid(c.wa.Apply(t, cA))
	wB := t.Sigmoid(c.wb.Apply(t, cB))
	mix := t.Add(t.Mul(wA, cA), t.Mul(wB, cB))
	return t.ReLU(c.wout.Apply(t, mix))
}

// RefinerConfig controls LPCE-R's stage-2 training.
type RefinerConfig struct {
	Kind RefinerKind
	// Base sets the fine-tuning optimizer (batch, learning rate, seed) and
	// the AdjustEpochs default; the modules passed in fix the architecture.
	Base TrainConfig
	// AdjustEpochs is the fine-tuning budget for the refine module.
	AdjustEpochs int
	// PrefixesPerSample bounds the executed-prefix positions drawn per plan
	// per epoch during adjustment (a plan with m operators provides m−1
	// potential samples; using all of them is wasteful).
	PrefixesPerSample int
}

// Defaults fills zero fields.
func (c RefinerConfig) Defaults() RefinerConfig {
	c.Base = c.Base.Defaults()
	if c.AdjustEpochs == 0 {
		c.AdjustEpochs = c.Base.Epochs
	}
	if c.PrefixesPerSample == 0 {
		c.PrefixesPerSample = 3
	}
	return c
}

// Refiner is the trained LPCE-R model (or one of its ablation variants).
type Refiner struct {
	Kind    RefinerKind
	Enc     *encode.Encoder
	DB      *storage.Database
	LogMax  float64
	Content *treenn.TreeModel // nil for Single and Two
	CardM   *treenn.TreeModel // cardinality-augmented module
	Refine  *treenn.TreeModel // nil for Single
	Connect *ConnectLayer     // nil unless Full
}

// TrainRefiner runs stage 2 of §5.2 over the stage-1 modules: content is
// LPCE-I's distilled student and card is TrainTreeModel's
// cardinality-augmented model at the student's width. Both are only read.
// The refine module starts as a clone of content, with zero Adam moments,
// and is fine-tuned (with the connect layer for LPCE-R) on executed
// prefixes. LPCE-R-Single is card alone; its content may be nil. Otherwise
// content and card must share Hidden, as the connect layer merges their
// embeddings and LoadRefiner rejects a set whose widths differ.
func TrainRefiner(cfg RefinerConfig, content, card *treenn.TreeModel, enc *encode.Encoder, db *storage.Database, samples []Sample, logMax float64) *Refiner {
	cfg = cfg.Defaults()
	r := &Refiner{Kind: cfg.Kind, Enc: enc, DB: db, LogMax: logMax, CardM: card}
	if cfg.Kind == RefinerSingle {
		return r
	}
	if content.Cfg.Hidden != card.Cfg.Hidden {
		panic(fmt.Sprintf("core: %s content module width %d, cardinality module %d: train the cardinality module at the content module's Hidden",
			cfg.Kind, content.Cfg.Hidden, card.Cfg.Hidden))
	}
	r.Refine = cloneModel(content)
	if cfg.Kind == RefinerFull {
		r.Content = content
		r.Connect = NewConnectLayer(content.Cfg.Hidden, cfg.Base.Seed+41)
	}
	r.adjust(cfg, samples)
	return r
}

// cloneModel builds a new model with identical architecture and parameter
// values ("refine module shares the same parameters as content module").
func cloneModel(m *treenn.TreeModel) *treenn.TreeModel {
	cp := treenn.NewTreeModel(m.Cfg)
	cp.LogMax = m.LogMax
	src := m.Params.All()
	dst := cp.Params.All()
	for i := range src {
		copy(dst[i].Val, src[i].Val)
		dst[i].Fin.Reset()
	}
	return cp
}

// adjust is stage 2: content and cardinality modules are frozen (their
// embeddings enter the tape as constants) and the refine module — plus the
// connect layer for the full design — is fine-tuned to predict the
// cardinalities of the remaining operators for random executed prefixes.
// Each epoch's prefix cut points are drawn before its batches run, in epoch
// order, and kept by sample index.
func (r *Refiner) adjust(cfg RefinerConfig, samples []Sample) {
	plainFeat := func(n *plan.Node) tensor.Vec { return r.Enc.EncodeNode(n) }
	master := []*nn.Params{r.Refine.Params}
	if r.Connect != nil {
		master = append(master, r.Connect.Params)
	}
	// ks[si] holds sample si's cut points for the current epoch. The epoch
	// hook rewrites it between batches; the pool's goroutines, started per
	// batch, only read it.
	ks := make([][]int, len(samples))
	base := cfg.Base
	base.Epochs = cfg.AdjustEpochs
	Minibatch(base, streamAdjust, len(samples), master,
		func() (func(int, float64), []*nn.Params) {
			refRep := r.Refine.Replica()
			grads := []*nn.Params{refRep.Params}
			connect := r.Connect
			if r.Connect != nil {
				connect = r.Connect.Replica()
				grads = append(grads, connect.Params)
			}
			run := func(si int, weight float64) {
				s := samples[si]
				for _, k := range ks[si] {
					execRoots, remaining := PrefixSubtrees(s.Plan, k)
					if len(execRoots) == 0 || len(remaining) == 0 {
						continue
					}
					t := autodiff.NewTape()
					childC := r.executedOverrides(t, connect, execRoots)
					outs := refRep.Forward(t, s.Plan, plainFeat, childC)
					w := weight / float64(cfg.PrefixesPerSample)
					for _, n := range remaining {
						out, ok := outs[n]
						if !ok || n.TrueCard < 0 {
							continue
						}
						loss := nn.QErrorLoss(t, out.Pred, n.TrueCard, r.LogMax)
						loss.Grad[0] = w
					}
					t.BackwardFrom()
				}
			}
			return run, grads
		},
		func(epoch int, order []int, _ []*nn.Adam) {
			prng := epochRand(cfg.Base.Seed, streamAdjustPrefix, epoch)
			for _, si := range order {
				m := samples[si].Plan.NumNodes()
				if m < 2 {
					continue
				}
				ki := make([]int, cfg.PrefixesPerSample)
				for p := range ki {
					ki[p] = 1 + prng.Intn(m-1)
				}
				ks[si] = ki
			}
		})
}

// executedOverrides computes, for each executed subtree root, the embedding
// the refine module sees in place of that child: the connect-layer merge of
// the content and cardinality embeddings (full design) or the cardinality
// embedding alone (two-module ablation). connect is the layer to merge with:
// adjustment workers pass their gradient replicas, while the frozen
// content/cardinality modules run tape-free, are shared read-only, and
// enter the tape as constants, so no gradient reaches them.
func (r *Refiner) executedOverrides(t *autodiff.Tape, connect *ConnectLayer, execRoots []*plan.Node) map[*plan.Node]*autodiff.Node {
	childC := make(map[*plan.Node]*autodiff.Node, len(execRoots))
	a := tensor.NewArena(0)
	plain, cardFeat := r.arenaFeatures(a)
	for _, sub := range execRoots {
		cB, _ := r.CardM.Encode(a, sub, cardFeat)
		if r.Kind == RefinerFull {
			cA, _ := r.Content.Encode(a, sub, plain)
			childC[sub] = connect.Apply(t, t.Const(cA), t.Const(cB))
		} else {
			childC[sub] = t.Const(cB)
		}
	}
	return childC
}

// PrefixSubtrees partitions a plan after its first k post-order operators
// have completed: it returns the maximal fully-executed subtrees (whose
// embeddings summarize the finished work) and the remaining operators
// (whose cardinalities LPCE-R re-estimates). Post-order matches the
// bottom-up completion order of the executor.
func PrefixSubtrees(root *plan.Node, k int) (execRoots, remaining []*plan.Node) {
	idx := make(map[*plan.Node]int)
	for i, n := range root.Nodes() {
		idx[n] = i
	}
	complete := func(n *plan.Node) bool { return idx[n] < k }
	var walk func(n *plan.Node)
	walk = func(n *plan.Node) {
		if n == nil {
			return
		}
		if complete(n) {
			execRoots = append(execRoots, n) // maximal: parent not complete
			return
		}
		remaining = append(remaining, n)
		walk(n.Left)
		walk(n.Right)
	}
	walk(root)
	return execRoots, remaining
}

// EvalPrefix simulates re-estimation after k executed operators on a
// collected sample and returns the q-errors of the remaining operators'
// refined estimates — the measurement behind Figure 16 and Table 3.
func (r *Refiner) EvalPrefix(s Sample, k int) []float64 {
	execRoots, remaining := PrefixSubtrees(s.Plan, k)
	if len(remaining) == 0 {
		return nil
	}
	var qs []float64
	switch r.Kind {
	case RefinerSingle:
		cards := r.singleCards(s.Plan, markExecuted(execRoots))
		for _, n := range remaining {
			if n.TrueCard >= 0 {
				qs = append(qs, obs.QError(n.TrueCard, cards[n]))
			}
		}
	default:
		t := autodiff.NewTape()
		childC := r.executedOverrides(t, r.Connect, execRoots)
		outs := r.Refine.Forward(t, s.Plan, func(n *plan.Node) tensor.Vec { return r.Enc.EncodeNode(n) }, childC)
		for _, n := range remaining {
			out, ok := outs[n]
			if !ok || n.TrueCard < 0 {
				continue
			}
			qs = append(qs, obs.QError(n.TrueCard, out.Card(r.LogMax)))
		}
	}
	return qs
}
