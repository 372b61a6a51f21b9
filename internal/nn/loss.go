package nn

import (
	"math"

	"github.com/lpce-db/lpce/internal/autodiff"
)

// Cardinalities are learned in normalized log space: a model's sigmoid
// output p ∈ [0,1] represents ln(card)/ln(maxCard) where maxCard is the
// largest cardinality observed in the training set (paper §4.2). These
// helpers convert between the two representations.

// NormalizeCard maps a cardinality to the [0,1] training target.
func NormalizeCard(card, logMax float64) float64 {
	if card < 1 {
		card = 1
	}
	if logMax <= 0 {
		return 0
	}
	p := math.Log(card) / logMax
	if p > 1 {
		p = 1
	}
	return p
}

// DenormalizeCard maps a model output back to a cardinality estimate.
func DenormalizeCard(pred, logMax float64) float64 {
	if pred < 0 {
		pred = 0
	}
	if pred > 1 {
		pred = 1
	}
	return math.Exp(pred * logMax)
}

// QErrorLoss returns a differentiable scalar node holding the q-error
// between the model prediction (a scalar node in normalized log space) and
// the true cardinality:
//
//	q = max(c, c̃)/min(c, c̃) = exp(|p·L − ln c|)  with  c̃ = exp(p·L).
//
// This is the per-node term q_ij of the node-wise loss (Eq. 3) and the
// per-query term q_i of the query-wise loss (Eq. 2).
func QErrorLoss(t *autodiff.Tape, pred *autodiff.Node, trueCard, logMax float64) *autodiff.Node {
	if pred.Len() != 1 {
		panic("nn: QErrorLoss requires a scalar prediction node")
	}
	if trueCard < 1 {
		trueCard = 1
	}
	// float64(...) keeps each product rounded on its own: a fused
	// multiply-add (arm64) would change the loss's bits.
	diff := float64(pred.Data[0]*logMax) - math.Log(trueCard)
	q := math.Exp(math.Abs(diff))
	out := t.NewNode(1)
	out.Data[0] = q
	t.Record(func() {
		g := float64(out.Grad[0] * q * logMax)
		if diff >= 0 {
			pred.Grad[0] += g
		} else {
			pred.Grad[0] -= g
		}
	})
	return out
}
