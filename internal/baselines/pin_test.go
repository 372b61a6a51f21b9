package baselines

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/lpce-db/lpce/internal/nn"
)

// paramDigest hashes the names and float64 bits of every parameter of a
// registry, in registry order.
func paramDigest(ps *nn.Params) string {
	h := sha256.New()
	var buf [8]byte
	for _, p := range ps.All() {
		h.Write([]byte(p.Name))
		for _, v := range p.Val {
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:12])
}

// TestTrainedWeightsPinned holds the baselines' training to the exact
// weights it produced before it ran on core.Minibatch. The gradient pool
// reduces in batch-position order, so the digests must not move with
// GOMAXPROCS either: CI runs this test under -cpu 1,2,4.
func TestTrainedWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on amd64; FMA contraction elsewhere can change float bits")
	}
	db, enc, samples, logMax := fixture(t)
	got := map[string]string{
		"tlstm":     paramDigest(TrainTLSTM(tinyCfg(3), enc, samples, logMax).Model.Params),
		"flow-loss": paramDigest(TrainFlowLoss(tinyCfg(6), enc, samples, logMax).Model.Params),
		"mscn":      paramDigest(TrainMSCN(MSCNConfig{Hidden: 16, Epochs: 2, Batch: 32, LR: 3e-3, Seed: 5}, db.Schema, samples, logMax).Params),
	}
	want := map[string]string{
		"tlstm":     "4857d289888ff7e52eb128d5",
		"flow-loss": "59ba754f21ce90c3b86988b2",
		"mscn":      "eb0581420f12728def4f2cef",
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: weights digest %s, pinned %s", name, got[name], w)
		}
	}
}
