package baselines

import (
	"math"

	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/nn"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/tensor"
	"github.com/lpce-db/lpce/internal/treenn"
)

// TrainTLSTM trains the TLSTM baseline [30]: a child-sum tree-LSTM over the
// plan, supervised only at the root (the query-wise loss of Eq. 2) — both
// deficiencies LPCE-I's SRU backbone and node-wise loss address.
func TrainTLSTM(cfg core.TrainConfig, enc *encode.Encoder, samples []core.Sample, logMax float64) *core.TreeEstimator {
	cfg.Cell = treenn.CellLSTM
	cfg.NodeWise = false
	m := core.TrainTreeModel(cfg, enc, samples, logMax, nil)
	return &core.TreeEstimator{Label: "tlstm", Model: m, Enc: enc}
}

// TrainFlowLoss trains the Flow-Loss baseline [22]. Flow-Loss's idea is to
// weight estimation errors by their effect on plan cost rather than
// treating all q-errors equally; we realize it as a cost-weighted node loss:
// each plan node's q-error is weighted by its share of the plan's total
// intermediate-result volume (the dominant term of the engine's cost
// model), so errors on large intermediate results — the ones that make the
// optimizer pick catastrophic plans — dominate training.
func TrainFlowLoss(cfg core.TrainConfig, enc *encode.Encoder, samples []core.Sample, logMax float64) *core.TreeEstimator {
	cfg = cfg.Defaults()
	// Built with no samples, the model is untrained: Flow-Loss trains it on
	// its own loss, with no learning-rate decay and its own shuffle seed.
	m := core.TrainTreeModel(cfg, enc, nil, logMax, nil)
	feat := func(n *plan.Node) tensor.Vec { return enc.EncodeNode(n) }
	shuffle := cfg
	shuffle.Seed++
	core.Minibatch(shuffle, streamFlowLoss, len(samples), []*nn.Params{m.Params},
		func() (func(int, float64), []*nn.Params) {
			rep := m.Replica()
			run := func(si int, weight float64) {
				s := samples[si]
				t := autodiff.NewTape()
				outs := rep.Forward(t, s.Plan, feat, nil)
				weights := costWeights(s.Plan)
				// Walk nodes in post-order rather than map order: tape ops
				// record in loop order and backward reduces in tape order,
				// so a randomized map walk would break the
				// byte-identical-weights guarantee.
				for _, n := range s.Plan.Nodes() {
					w, hasW := weights[n]
					out, ok := outs[n]
					if !hasW || !ok || n.TrueCard < 0 {
						continue
					}
					loss := nn.QErrorLoss(t, out.Pred, n.TrueCard, rep.LogMax)
					loss.Grad[0] = w * weight
				}
				t.BackwardFrom()
			}
			return run, []*nn.Params{rep.Params}
		}, nil)
	return &core.TreeEstimator{Label: "flow-loss", Model: m, Enc: enc}
}

// costWeights assigns each node a weight proportional to log(1+card),
// normalized to sum to the node count (so the total gradient magnitude
// matches the node-wise loss).
func costWeights(root *plan.Node) map[*plan.Node]float64 {
	w := make(map[*plan.Node]float64)
	var sum float64
	root.Walk(func(n *plan.Node) {
		if n.TrueCard < 0 {
			return
		}
		v := math.Log1p(n.TrueCard)
		w[n] = v
		sum += v
	})
	if sum == 0 {
		return w
	}
	scale := float64(len(w)) / sum
	for n := range w {
		w[n] *= scale
	}
	return w
}
