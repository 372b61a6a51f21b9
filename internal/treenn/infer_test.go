package treenn

import (
	"math/rand"
	"testing"

	"github.com/lpce-db/lpce/internal/autodiff"
	"github.com/lpce-db/lpce/internal/plan"
	"github.com/lpce-db/lpce/internal/tensor"
)

// bushy builds a random binary tree over n leaves; only its shape matters,
// the features come from featFor.
func bushy(rng *rand.Rand, n int) *plan.Node {
	if n == 1 {
		return &plan.Node{Op: plan.SeqScan}
	}
	l := 1 + rng.Intn(n-1)
	return &plan.Node{Op: plan.HashJoin, Left: bushy(rng, l), Right: bushy(rng, n-l)}
}

// TestEncodeMatchesForward holds the tape-free path to the tape's values bit
// for bit on tree shapes the estimation sessions never build themselves but
// executed sub-plans have: bushy trees of every size up to nine leaves.
func TestEncodeMatchesForward(t *testing.T) {
	for _, cell := range []CellKind{CellSRU, CellLSTM} {
		m, _ := testModel(cell, 31)
		wrng := tensor.NewRNG(32)
		for _, p := range m.Params.All() { // non-zero biases
			d := tensor.NewVec(len(p.Val))
			wrng.FillNormal(d, 0, 0.4)
			p.Val.Add(d)
		}
		rng := rand.New(rand.NewSource(33))
		for leaves := 1; leaves <= 9; leaves++ {
			for rep := 0; rep < 5; rep++ {
				root := bushy(rng, leaves)
				feats := make(map[*plan.Node]tensor.Vec)
				root.Walk(func(n *plan.Node) {
					v := tensor.NewVec(m.Cfg.InputDim)
					wrng.FillUniform(v, -1, 2)
					feats[n] = v
				})
				feat := func(n *plan.Node) tensor.Vec { return feats[n] }
				outs := m.Forward(autodiff.NewTape(), root, feat, nil)
				c, h := m.Encode(tensor.NewArena(0), root, feat)
				for i := range c {
					if c[i] != outs[root].C.Data[i] || h[i] != outs[root].H.Data[i] {
						t.Fatalf("%v, %d leaves: encoding differs from the tape at %d", cell, leaves, i)
					}
				}
				if got, want := m.Predict(root, feat), outs[root].Card(m.LogMax); got != want {
					t.Fatalf("%v, %d leaves: Predict %v, tape %v", cell, leaves, got, want)
				}
			}
		}
	}
}
