package core

import (
	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/nn"
	"github.com/lpce-db/lpce/internal/obs"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/tensor"
	"github.com/lpce-db/lpce/internal/treenn"
)

// TrainConfig controls the training of one tree model.
type TrainConfig struct {
	Hidden   int
	OutWidth int
	Cell     treenn.CellKind
	Epochs   int
	Batch    int // paper: 50
	LR       float64
	// NodeWise selects the node-wise loss (Eq. 3); false uses the
	// query-wise loss (Eq. 2), the LPCE-Q ablation.
	NodeWise bool
	ClipNorm float64
	Seed     int64
}

// Defaults fills zero fields with sensible values.
func (c TrainConfig) Defaults() TrainConfig {
	if c.Hidden == 0 {
		c.Hidden = 32
	}
	if c.OutWidth == 0 {
		c.OutWidth = 64
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.Batch == 0 {
		c.Batch = 50
	}
	if c.LR == 0 {
		c.LR = 1e-3
	}
	if c.ClipNorm == 0 {
		c.ClipNorm = 25
	}
	return c
}

// CardFeature builds the cardinality-augmented feature of LPCE-R's
// cardinality module (§5.2): node features concatenated with the true
// cardinalities of the node's children. Leaves, which have no children, use
// their base table's row count ("the number of tuples in the considered
// attributes") and zero.
func CardFeature(enc *encode.Encoder, logMax float64, db *storage.Database) treenn.FeatureFn {
	return func(n *plan.Node) tensor.Vec {
		l, r := childCards(db, n)
		return enc.WithCards(enc.EncodeNode(n), l, r, logMax)
	}
}

// childCards returns the two cardinalities CardFeature appends to n's
// features.
func childCards(db *storage.Database, n *plan.Node) (l, r float64) {
	switch {
	case n.Left != nil:
		l = n.Left.TrueCard
		if n.Right != nil {
			r = n.Right.TrueCard
		}
	case n.Table != nil:
		l = float64(db.Table(n.Table).NumRows())
	case n.Mat != nil:
		l = float64(n.Mat.Card())
	}
	return l, r
}

// TrainTreeModel trains a tree model (any cell, either loss) on the
// samples, minimizing mean q-error with Adam and a step-decay learning
// rate. It is the shared trainer for LPCE-I's teacher, the TLSTM baseline,
// LPCE-R's content and cardinality modules, and the LPCE-S/LPCE-C/LPCE-Q
// ablations. A nil cards trains on the plain node encoding; a database
// trains on the cardinality-augmented encoding over it (CardFeature), the
// input of LPCE-R's cardinality module. With no samples the model is
// returned untrained.
func TrainTreeModel(cfg TrainConfig, enc *encode.Encoder, samples []Sample, logMax float64, cards *storage.Database) *treenn.TreeModel {
	cfg = cfg.Defaults()
	inputDim := enc.Dim()
	feat := func(n *plan.Node) tensor.Vec { return enc.EncodeNode(n) }
	if cards != nil {
		inputDim = enc.DimWithCards()
		feat = CardFeature(enc, logMax, cards)
	}
	m := treenn.NewTreeModel(treenn.Config{
		InputDim: inputDim,
		Hidden:   cfg.Hidden,
		OutWidth: cfg.OutWidth,
		Cell:     cfg.Cell,
		Seed:     cfg.Seed,
	})
	m.LogMax = logMax
	Minibatch(cfg, streamTrainLoop, len(samples), []*nn.Params{m.Params},
		func() (func(int, float64), []*nn.Params) {
			rep := m.Replica()
			run := func(si int, weight float64) {
				s := samples[si]
				t := autodiff.NewTape()
				outs := rep.Forward(t, s.Plan, feat, nil)
				seedQErrorGrads(t, rep, s.Plan, outs, cfg.NodeWise, weight)
				t.BackwardFrom()
			}
			return run, []*nn.Params{rep.Params}
		},
		// step-decay schedule: halve the rate twice in the final stretch so
		// the q-error loss settles instead of oscillating around minima
		func(epoch int, _ []int, opts []*nn.Adam) {
			switch {
			case epoch == cfg.Epochs*8/10:
				opts[0].LR = cfg.LR / 2
			case epoch == cfg.Epochs*19/20:
				opts[0].LR = cfg.LR / 4
			}
		})
	return m
}

// seedQErrorGrads attaches q-error losses to the requested nodes and seeds
// their gradients with weight w; the caller then runs BackwardFrom once.
func seedQErrorGrads(t *autodiff.Tape, m *treenn.TreeModel, root *plan.Node, outs map[*plan.Node]*treenn.NodeOut, nodeWise bool, w float64) {
	attach := func(n *plan.Node) {
		out, ok := outs[n]
		if !ok || n.TrueCard < 0 {
			return
		}
		loss := nn.QErrorLoss(t, out.Pred, n.TrueCard, m.LogMax)
		loss.Grad[0] = w
	}
	if nodeWise {
		root.Walk(attach)
	} else {
		attach(root)
	}
}

// EvalQError computes the mean and per-sample q-errors of a model's root
// (final-result) predictions over the samples, the metric of the paper's
// Figures 1/20/21.
func EvalQError(m *treenn.TreeModel, enc *encode.Encoder, samples []Sample) (mean float64, all []float64) {
	feat := func(n *plan.Node) tensor.Vec { return enc.EncodeNode(n) }
	for _, s := range samples {
		est := m.Predict(s.Plan, feat)
		q := obs.QError(s.Plan.TrueCard, est)
		all = append(all, q)
		mean += q
	}
	if len(all) > 0 {
		mean /= float64(len(all))
	}
	return mean, all
}
