package modelio

import (
	"bytes"
	"errors"
	"math"
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/baselines"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/histogram"
	"github.com/lpce-db/lpce/internal/query"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/testutil"
	"github.com/lpce-db/lpce/internal/workload"
)

// Shared fixture: one tiny database with a trained model set, built once per
// test binary (training dominates the suite's runtime).
var (
	fixOnce    sync.Once
	fixDB      *storage.Database
	fixEnc     *encode.Encoder
	fixSamples []core.Sample
	fixSet     *Set
)

func fixture(t testing.TB) (*storage.Database, *encode.Encoder, *Set) {
	t.Helper()
	fixOnce.Do(func() {
		fixDB = testutil.TinyDB()
		fixEnc = encode.NewEncoder(fixDB.Schema)
		g := workload.NewGenerator(fixDB, 61)
		queries := g.QueriesRange(40, 2, 4)
		fixSamples, _ = core.CollectSamples(fixDB, histogram.NewEstimator(fixDB), queries, 50_000_000)
		logMax := core.MaxLogCard(fixSamples)
		base := core.TrainConfig{Hidden: 12, OutWidth: 16, Epochs: 2, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 41}
		fixSet = &Set{
			LPCEI: core.TrainLPCEI(core.LPCEIConfig{
				Teacher: base,
				Student: core.TrainConfig{Hidden: 8, OutWidth: 8, Epochs: 2, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 41},
			}, fixEnc, fixSamples, logMax),
			Refiner: core.TrainRefiner(core.RefinerConfig{
				Kind: core.RefinerFull, Base: base, AdjustEpochs: 2, PrefixesPerSample: 2,
			}, fixEnc, fixDB, fixSamples, logMax),
			TLSTM:    baselines.TrainTLSTM(base, fixEnc, fixSamples, logMax).Model,
			FlowLoss: baselines.TrainFlowLoss(base, fixEnc, fixSamples, logMax).Model,
			MSCN:     baselines.TrainMSCN(baselines.MSCNConfig{Hidden: 16, Epochs: 2, Batch: 32, LR: 3e-3, Seed: 41}, fixDB.Schema, fixSamples, logMax),
		}
	})
	if len(fixSamples) < 20 {
		t.Fatalf("only %d samples", len(fixSamples))
	}
	return fixDB, fixEnc, fixSet
}

// estimates evaluates an estimator over every connected subset of a few
// fresh queries, as a behavioral signature for round-trip comparison.
func estimates(t *testing.T, db *storage.Database, est interface {
	EstimateSubset(*query.Query, query.BitSet) float64
}) []float64 {
	t.Helper()
	g := workload.NewGenerator(db, 62)
	var out []float64
	for i := 0; i < 4; i++ {
		q := g.Query(2 + i%2)
		for mask := query.BitSet(1); mask <= q.AllTablesMask(); mask++ {
			if q.Connected(mask) {
				out = append(out, est.EstimateSubset(q, mask))
			}
		}
	}
	return out
}

func TestSetRoundtripIdenticalEstimates(t *testing.T) {
	db, enc, set := fixture(t)
	dir := t.TempDir()
	if err := set.Save(dir, enc); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSet(dir, enc, db)
	if err != nil {
		t.Fatal(err)
	}

	pairs := []struct {
		name string
		a, b interface {
			EstimateSubset(*query.Query, query.BitSet) float64
		}
	}{
		{"lpce-i", &core.TreeEstimator{Label: "a", Model: set.LPCEI.Model, Enc: enc},
			&core.TreeEstimator{Label: "b", Model: loaded.LPCEI.Model, Enc: enc}},
		{"teacher", &core.TreeEstimator{Label: "a", Model: set.LPCEI.Teacher, Enc: enc},
			&core.TreeEstimator{Label: "b", Model: loaded.LPCEI.Teacher, Enc: enc}},
		{"tlstm", &core.TreeEstimator{Label: "a", Model: set.TLSTM, Enc: enc},
			&core.TreeEstimator{Label: "b", Model: loaded.TLSTM, Enc: enc}},
		{"flow-loss", &core.TreeEstimator{Label: "a", Model: set.FlowLoss, Enc: enc},
			&core.TreeEstimator{Label: "b", Model: loaded.FlowLoss, Enc: enc}},
		{"mscn", set.MSCN, loaded.MSCN},
	}
	for _, p := range pairs {
		ea, eb := estimates(t, db, p.a), estimates(t, db, p.b)
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("%s: loaded model diverges at %d: %v vs %v", p.name, i, ea[i], eb[i])
			}
		}
	}

	// The refiner round-trips through its own prefix-evaluation path.
	s := fixSamples[1]
	k := s.Plan.NumNodes() / 2
	if k < 1 {
		k = 1
	}
	qa, qb := set.Refiner.EvalPrefix(s, k), loaded.Refiner.EvalPrefix(s, k)
	if len(qa) != len(qb) {
		t.Fatal("refiner estimate count differs after load")
	}
	for i := range qa {
		if math.Abs(qa[i]-qb[i]) > 1e-12 {
			t.Fatalf("refiner diverges at %d: %v vs %v", i, qa[i], qb[i])
		}
	}
}

func saveLPCEIBytes(t *testing.T) ([]byte, *encode.Encoder) {
	t.Helper()
	_, enc, set := fixture(t)
	var b bytes.Buffer
	if err := SaveLPCEI(&b, set.LPCEI, enc); err != nil {
		t.Fatal(err)
	}
	return b.Bytes(), enc
}

func TestLoadRejectsBadMagic(t *testing.T) {
	raw, enc := saveLPCEIBytes(t)
	bad := append([]byte("NOTMODEL"), raw[8:]...)
	if _, err := LoadLPCEI(bytes.NewReader(bad), enc); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := LoadLPCEI(bytes.NewReader(nil), enc); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty file: err = %v, want ErrBadMagic", err)
	}
}

func TestLoadRejectsWrongVersion(t *testing.T) {
	raw, enc := saveLPCEIBytes(t)
	bad := bytes.Clone(raw)
	bad[8] = 99 // little-endian version field follows the 8-byte magic
	if _, err := LoadLPCEI(bytes.NewReader(bad), enc); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}
}

func TestLoadRejectsWrongKind(t *testing.T) {
	raw, enc := saveLPCEIBytes(t)
	if _, err := LoadTreeModel(bytes.NewReader(raw), enc); !errors.Is(err, ErrKind) {
		t.Fatalf("err = %v, want ErrKind", err)
	}
}

func TestLoadRejectsFingerprintMismatch(t *testing.T) {
	raw, _ := saveLPCEIBytes(t)
	// A different-seed database has different column statistics, hence a
	// different fingerprint (and possibly dimension; either rejection is a
	// compatibility failure).
	other := encode.NewEncoder(testutil.SmallDB().Schema)
	_, err := LoadLPCEI(bytes.NewReader(raw), other)
	if !errors.Is(err, ErrFingerprint) && !errors.Is(err, ErrInputDim) {
		t.Fatalf("err = %v, want ErrFingerprint or ErrInputDim", err)
	}
}

func TestLoadRejectsTruncation(t *testing.T) {
	raw, enc := saveLPCEIBytes(t)
	for _, n := range []int{len(raw) - 1, len(raw) / 2, len(raw) / 4} {
		if _, err := LoadLPCEI(bytes.NewReader(raw[:n]), enc); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
}

func TestLoadRejectsBitRot(t *testing.T) {
	raw, enc := saveLPCEIBytes(t)
	bad := bytes.Clone(raw)
	bad[len(bad)/2] ^= 0x40
	if _, err := LoadLPCEI(bytes.NewReader(bad), enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestLoadSetMissingFile(t *testing.T) {
	db, enc, set := fixture(t)
	dir := t.TempDir()
	if err := set.Save(dir, enc); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSet(t.TempDir(), enc, db); err == nil {
		t.Fatal("loading an empty directory should fail")
	}
}
