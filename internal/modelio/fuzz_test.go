package modelio

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"github.com/lpce-db/lpce/internal/baselines"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/treenn"
	"github.com/lpce-db/lpce/internal/workload"
)

// artifact frames payloads behind a valid header with valid checksums, so
// a mutated payload gets past the CRC and reaches the gob decoder.
func artifact(t testing.TB, kind string, enc *encode.Encoder, payloads ...[]byte) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := writeHeader(&b, kind, enc); err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := writeFrame(&b, p); err != nil {
			t.Fatal(err)
		}
	}
	return b.Bytes()
}

// gobBytes runs a core/baselines save function into a frame payload.
func gobBytes(t testing.TB, save func(io.Writer) error) []byte {
	t.Helper()
	p, err := frame(save)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// FuzzLoadArtifact mutates the gob payloads of every artifact kind and
// re-frames them behind a valid header with valid checksums: each loader
// must return nil or ErrCorrupt, never panic, and a model it does return
// must estimate without panicking. Seeds are the fixture's saved artifacts
// and a tree spec with a negative hidden width, which used to panic in
// makeslice.
func FuzzLoadArtifact(f *testing.F) {
	db, enc, set := fixture(f)
	q := workload.NewGenerator(db, 63).Query(3)
	sample := fixSamples[1]
	useTree := func(m *treenn.TreeModel) {
		(&core.TreeEstimator{Label: "fuzz", Model: m, Enc: enc}).EstimateSubset(q, q.AllTablesMask())
	}
	loaders := []struct {
		kind   string
		frames int
		load   func(r io.Reader) error
	}{
		{KindTree, 1, func(r io.Reader) error {
			m, err := LoadTreeModel(r, enc)
			if err == nil {
				useTree(m)
			}
			return err
		}},
		{KindLPCEI, 2, func(r io.Reader) error {
			l, err := LoadLPCEI(r, enc)
			if err == nil {
				useTree(l.Model)
				useTree(l.Teacher)
			}
			return err
		}},
		{KindRefiner, 1, func(r io.Reader) error {
			ref, err := LoadRefiner(r, enc, db)
			if err == nil {
				ref.EvalPrefix(sample, 1)
			}
			return err
		}},
		{KindMSCN, 1, func(r io.Reader) error {
			m, err := LoadMSCN(r, enc)
			if err == nil {
				m.EstimateSubset(q, q.AllTablesMask())
			}
			return err
		}},
	}

	tree := func(m *treenn.TreeModel) []byte {
		return gobBytes(f, func(w io.Writer) error { return core.SaveTreeModel(w, m) })
	}
	f.Add(uint8(0), tree(set.TLSTM), []byte(nil))
	f.Add(uint8(1), tree(set.LPCEI.Model), tree(set.LPCEI.Teacher))
	f.Add(uint8(2), gobBytes(f, func(w io.Writer) error { return core.SaveRefiner(w, set.Refiner) }), []byte(nil))
	f.Add(uint8(3), gobBytes(f, func(w io.Writer) error { return baselines.SaveMSCN(w, set.MSCN) }), []byte(nil))
	bad := *set.TLSTM
	bad.Cfg.Hidden = -3
	f.Add(uint8(0), tree(&bad), []byte(nil))

	f.Fuzz(func(t *testing.T, kind uint8, first, second []byte) {
		l := loaders[int(kind)%len(loaders)]
		payloads := [][]byte{first, second}[:l.frames]
		err := l.load(bytes.NewReader(artifact(t, l.kind, enc, payloads...)))
		if err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("%s: err = %v, want nil or ErrCorrupt", l.kind, err)
		}
	})
}
