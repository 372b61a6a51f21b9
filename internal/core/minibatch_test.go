package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"github.com/lpce-db/lpce/internal/nn"
)

func TestEpochOrderDeterministicPermutation(t *testing.T) {
	const n = 97
	a := EpochOrder(7, streamTrainLoop, 3, n)
	b := EpochOrder(7, streamTrainLoop, 3, n)
	if len(a) != n {
		t.Fatalf("order length %d", len(a))
	}
	seen := make([]bool, n)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("EpochOrder is not a pure function of (seed, stream, epoch, n)")
		}
		if a[i] < 0 || a[i] >= n || seen[a[i]] {
			t.Fatalf("not a permutation: index %d at position %d", a[i], i)
		}
		seen[a[i]] = true
	}
}

func TestEpochOrderStreamsIndependent(t *testing.T) {
	// Different epochs and different streams must draw from unrelated
	// shuffles; a coupled RNG stream would replay the same permutation.
	same := func(a, b []int) bool {
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	base := EpochOrder(7, streamTrainLoop, 0, 64)
	if same(base, EpochOrder(7, streamTrainLoop, 1, 64)) {
		t.Fatal("consecutive epochs produced identical shuffles")
	}
	if same(base, EpochOrder(7, streamDistillHint, 0, 64)) {
		t.Fatal("distinct streams produced identical shuffles")
	}
	if same(base, EpochOrder(8, streamTrainLoop, 0, 64)) {
		t.Fatal("distinct seeds produced identical shuffles")
	}
}

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

// TestTrainedWeightsPinned holds every core training phase to the exact
// weights it produced before the phases shared one Minibatch driver. The
// gradient pool reduces in batch-position order, so the digests must not
// move with GOMAXPROCS either: CI runs this test under -cpu 1,2,4.
func TestTrainedWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are pinned on amd64; FMA contraction elsewhere can change float bits")
	}
	db, enc, samples, logMax := fixture(t)
	got := map[string]string{}

	lp := TrainLPCEI(LPCEIConfig{
		Teacher: TrainConfig{Hidden: 24, OutWidth: 32, Epochs: 3, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 32},
		Student: TrainConfig{Hidden: 8, OutWidth: 8, Epochs: 3, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 32},
	}, enc, samples, logMax)
	got["lpce-i teacher"] = paramDigest(lp.Teacher.Params)
	got["lpce-i student"] = paramDigest(lp.Model.Params)

	for i, kind := range []RefinerKind{RefinerFull, RefinerTwo, RefinerSingle} {
		r := trainRefiner(RefinerConfig{Kind: kind, Base: tinyCfg(33 + int64(i)), AdjustEpochs: 2, PrefixesPerSample: 2}, enc, db, samples, logMax)
		got[kind.String()+" card"] = paramDigest(r.CardM.Params)
		if r.Content != nil {
			got[kind.String()+" content"] = paramDigest(r.Content.Params)
		}
		if r.Refine != nil {
			got[kind.String()+" refine"] = paramDigest(r.Refine.Params)
		}
		if r.Connect != nil {
			got[kind.String()+" connect"] = paramDigest(r.Connect.Params)
		}
	}
	// "lpce-r-two refine" moved when LPCE-R-Two's refine module became a
	// clone of its content module: stage 2 now starts from zero Adam moments
	// (nn.Adam keeps them on each Param) instead of stage 1's.
	want := map[string]string{
		"lpce-i teacher":     "821630f28e1088296bfc6f7c",
		"lpce-i student":     "9ac2e6cd786cb937952ed5e9",
		"lpce-r card":        "9bbaa213564e471711da40e9",
		"lpce-r content":     "425739099b8ad3d628b3837a",
		"lpce-r refine":      "b6ca6390e20dcea05b85c9c0",
		"lpce-r connect":     "eec3e7ceee3441b0a868e9b1",
		"lpce-r-two card":    "4acbbcad65c44afaa71c992e",
		"lpce-r-two refine":  "e7c688458cd7a752b55ce092",
		"lpce-r-single card": "e19b09489e5af8e014b146a0",
	}
	if len(got) != len(want) {
		t.Errorf("digested %d registries, pinned %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("%s: weights digest %s, pinned %s", name, got[name], w)
		}
	}
}
