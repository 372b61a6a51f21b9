package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/lpce-db/lpce/internal/baselines"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/datagen"
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
		student := core.TrainConfig{Hidden: 8, OutWidth: 8, Epochs: 2, Batch: 16, LR: 3e-3, NodeWise: true, Seed: 41}
		lpcei := core.TrainLPCEI(core.LPCEIConfig{Teacher: base, Student: student}, fixEnc, fixSamples, logMax)
		fixSet = &Set{
			LPCEI: lpcei,
			// LPCE-R at LPCE-I's width: the student is the content module.
			Refiner: core.TrainRefiner(core.RefinerConfig{
				Kind: core.RefinerFull, Base: student, AdjustEpochs: 2, PrefixesPerSample: 2,
			}, lpcei.Model, core.TrainTreeModel(student, fixEnc, fixSamples, logMax, fixDB), fixEnc, fixDB, fixSamples, logMax),
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

// savedSet saves the fixture set and returns its directory and file bytes.
// Save writes exactly one file.
func savedSet(t testing.TB) (string, []byte) {
	t.Helper()
	_, enc, set := fixture(t)
	dir := t.TempDir()
	if err := set.Save(dir, enc); err != nil {
		t.Fatal(err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 || ents[0].Name() != setFile {
		t.Fatalf("Save wrote %v (err %v), want the one file %s", ents, err, setFile)
	}
	raw, err := os.ReadFile(filepath.Join(dir, setFile))
	if err != nil {
		t.Fatal(err)
	}
	return dir, raw
}

// loadBytes writes raw as the set file of a fresh directory and loads it.
func loadBytes(t testing.TB, raw []byte, enc *encode.Encoder, db *storage.Database) (*Set, error) {
	t.Helper()
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, setFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return LoadSet(dir, enc, db)
}

// headerLen is the v2 header: magic, version, dimension, fingerprint.
const headerLen = len(magic) + 4 + 4 + 8

// frameEnds returns the offset just past each frame of a set file.
func frameEnds(raw []byte) []int {
	var ends []int
	for off := headerLen; off+8 <= len(raw); {
		off += 8 + int(binary.LittleEndian.Uint32(raw[off:]))
		ends = append(ends, off)
	}
	return ends
}

func TestLoadRejectsBadMagic(t *testing.T) {
	db, enc, _ := fixture(t)
	_, raw := savedSet(t)
	bad := append([]byte("NOTMODEL"), raw[8:]...)
	if _, err := loadBytes(t, bad, enc, db); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("err = %v, want ErrBadMagic", err)
	}
	if _, err := loadBytes(t, nil, enc, db); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("empty file: err = %v, want ErrBadMagic", err)
	}
}

// TestLoadRejectsWrongVersion: an unknown version is refused, and so is
// the per-kind format v1 (version 1, then a length-prefixed kind name),
// both in place of the set file and as the lpcei.model of a v1 directory.
func TestLoadRejectsWrongVersion(t *testing.T) {
	db, enc, _ := fixture(t)
	_, raw := savedSet(t)
	bad := bytes.Clone(raw)
	bad[8] = 99 // little-endian version field follows the 8-byte magic
	if _, err := loadBytes(t, bad, enc, db); !errors.Is(err, ErrVersion) {
		t.Fatalf("err = %v, want ErrVersion", err)
	}

	var v1 bytes.Buffer
	v1.WriteString(magic)
	binary.Write(&v1, binary.LittleEndian, uint32(1))
	binary.Write(&v1, binary.LittleEndian, uint32(len("lpcei")))
	v1.WriteString("lpcei")
	v1.Write(raw[len(magic)+4:])
	if _, err := loadBytes(t, v1.Bytes(), enc, db); !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 header: err = %v, want ErrVersion", err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "lpcei.model"), v1.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSet(dir, enc, db); !errors.Is(err, ErrVersion) {
		t.Fatalf("v1 directory: err = %v, want ErrVersion", err)
	}
}

// TestLoadRejectsFingerprintMismatch: a set saved against one database
// fails to load against a database with the same schema and feature width
// but different column statistics, whose encoder would shift every operand
// feature the models were trained on; a larger database of another seed
// may differ in width too, and either rejection is a compatibility failure.
func TestLoadRejectsFingerprintMismatch(t *testing.T) {
	_, enc, _ := fixture(t)
	dir, _ := savedSet(t)
	other := datagen.Generate(datagen.Config{Titles: 300, Seed: 43})
	otherEnc := encode.NewEncoder(other.Schema)
	if enc.Dim() != otherEnc.Dim() {
		t.Fatalf("schemas differ (%d vs %d features); the test needs equal ones", enc.Dim(), otherEnc.Dim())
	}
	if _, err := LoadSet(dir, otherEnc, other); !errors.Is(err, ErrFingerprint) {
		t.Fatalf("set against other statistics: err = %v, want a fingerprint mismatch", err)
	}
	small := testutil.SmallDB()
	_, err := LoadSet(dir, encode.NewEncoder(small.Schema), small)
	if !errors.Is(err, ErrFingerprint) && !errors.Is(err, ErrInputDim) {
		t.Fatalf("set against SmallDB: err = %v, want ErrFingerprint or ErrInputDim", err)
	}
}

// TestLoadRejectsTruncation cuts the file inside the header, inside a
// frame, and cleanly after the header or any of the first five frames (a
// file missing models); a byte past the sixth frame is not part of the
// format either.
func TestLoadRejectsTruncation(t *testing.T) {
	db, enc, _ := fixture(t)
	_, raw := savedSet(t)
	ends := frameEnds(raw)
	if len(ends) != 6 || ends[5] != len(raw) {
		t.Fatalf("frame ends %v in a %d-byte file, want six frames filling it", ends, len(raw))
	}
	cuts := append([]int{len(raw) - 1, len(raw) / 2, len(raw) / 4, headerLen - 1, headerLen}, ends[:5]...)
	for _, n := range cuts {
		if _, err := loadBytes(t, raw[:n], enc, db); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("truncated to %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
	if _, err := loadBytes(t, append(bytes.Clone(raw), 0), enc, db); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing byte: err = %v, want ErrCorrupt", err)
	}
}

// TestLoadRejectsBitRot flips one bit in the middle of each frame's
// payload: the frame's checksum catches it.
func TestLoadRejectsBitRot(t *testing.T) {
	db, enc, _ := fixture(t)
	_, raw := savedSet(t)
	start := headerLen
	for i, end := range frameEnds(raw) {
		bad := bytes.Clone(raw)
		bad[(start+8+end)/2] ^= 0x40
		if _, err := loadBytes(t, bad, enc, db); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("frame %d: err = %v, want ErrCorrupt", i, err)
		}
		start = end
	}
}

func TestLoadSetMissingFile(t *testing.T) {
	db, enc, _ := fixture(t)
	if _, err := LoadSet(t.TempDir(), enc, db); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("empty directory: err = %v, want fs.ErrNotExist", err)
	}
}
