package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/treenn"
	"github.com/lpce-db/lpce/internal/workload"
)

// setBytes frames payloads behind a valid header with valid checksums, so
// a mutated payload gets past the CRC and reaches its gob decoder.
func setBytes(enc *encode.Encoder, payloads [][]byte) []byte {
	var b bytes.Buffer
	writeHeader(&b, enc)
	for _, p := range payloads {
		writeFrame(&b, p)
	}
	return b.Bytes()
}

// FuzzLoadSet loads fuzzed set files: LoadSet must return nil or an error
// wrapping one of the package's sentinels, never panic, and a set it does
// return must estimate without panicking. A mode below 6 replaces that
// frame's payload (LPCE-I student, teacher, LPCE-R, TLSTM, Flow-Loss, MSCN)
// with the fuzz bytes and recomputes its checksum, so every payload decoder
// and validator is reached; mode 6 takes the fuzz bytes as the whole file,
// header and frame headers included. Seeds are the fixture set's six
// payloads, its whole file, the file with an implausible first frame
// length, and a TLSTM spec with a negative hidden width, which used to
// panic in makeslice.
//
// Run it locally with a minimization cap, as the nightly workflow does:
//
//	go test -run '^$' -fuzz '^FuzzLoadSet$' -fuzztime 30s -fuzzminimizetime 100x ./internal/modelio
//
// Without -fuzzminimizetime the default 60 s minimization of each
// new-coverage input, on whole-file seeds of ~266 KB, stalls the run after a
// few execs.
func FuzzLoadSet(f *testing.F) {
	db, enc, set := fixture(f)
	q := workload.NewGenerator(db, 63).Query(3)
	sample := fixSamples[1]
	useTree := func(m *treenn.TreeModel) {
		(&core.TreeEstimator{Label: "fuzz", Model: m, Enc: enc}).EstimateSubset(q, q.AllTablesMask())
	}

	payload := func(save func(io.Writer) error) []byte {
		var b bytes.Buffer
		if err := save(&b); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	var valid [][]byte
	for _, save := range set.payloads() {
		valid = append(valid, payload(save))
	}
	for i, p := range valid {
		f.Add(uint8(i), p)
	}
	raw := setBytes(enc, valid)
	f.Add(uint8(6), raw)
	huge := bytes.Clone(raw)
	binary.LittleEndian.PutUint32(huge[headerLen:], maxFrame+1)
	f.Add(uint8(6), huge)
	bad := *set.TLSTM
	bad.Cfg.Hidden = -3
	f.Add(uint8(3), payload(func(w io.Writer) error { return core.SaveTreeModel(w, &bad) }))

	sentinels := []error{ErrBadMagic, ErrVersion, ErrInputDim, ErrFingerprint, ErrCorrupt}
	f.Fuzz(func(t *testing.T, mode uint8, data []byte) {
		file := data
		if i := int(mode) % 7; i < 6 {
			payloads := append([][]byte(nil), valid...)
			payloads[i] = data
			file = setBytes(enc, payloads)
		}
		s, err := loadBytes(t, file, enc, db)
		if err != nil {
			for _, s := range sentinels {
				if errors.Is(err, s) {
					return
				}
			}
			t.Fatalf("mode %d: err = %v, want nil or a modelio sentinel", mode, err)
		}
		useTree(s.LPCEI.Model)
		useTree(s.LPCEI.Teacher)
		s.Refiner.EvalPrefix(sample, 1)
		useTree(s.TLSTM)
		useTree(s.FlowLoss)
		s.MSCN.EstimateSubset(q, q.AllTablesMask())
	})
}
