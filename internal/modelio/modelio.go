// Package modelio implements the versioned on-disk artifact format for
// trained models, decoupling training (cmd/lpce-train) from evaluation
// (cmd/lpce-bench -models-in).
//
// An artifact is a fixed binary header followed by length-prefixed,
// CRC32-checksummed frames. The header carries the format version, the
// artifact kind, and two compatibility checks: the encoder's base feature
// dimension and its schema fingerprint (encode.Encoder.Fingerprint). A
// model trained against one schema therefore cannot be silently loaded
// against another — or against the same schema with different column
// statistics, which would shift every operand feature. Each frame holds
// one gob payload produced by the core/baselines persistence code; framing
// keeps the payloads independent (sequential gob decoders on one stream
// over-read) and lets truncation and bit-rot be detected before gob sees
// the bytes.
package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/lpce-db/lpce/internal/baselines"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/treenn"
)

// magic identifies model artifact files.
const magic = "LPCEMODL"

// Version is the current artifact format version. Readers reject any other
// version outright; there is no cross-version migration.
const Version = 1

// Artifact kinds.
const (
	KindTree    = "tree"
	KindLPCEI   = "lpcei"
	KindRefiner = "refiner"
	KindMSCN    = "mscn"
)

// Sentinel load errors, matchable with errors.Is.
var (
	ErrBadMagic    = errors.New("modelio: not a model artifact")
	ErrVersion     = errors.New("modelio: unsupported artifact version")
	ErrKind        = errors.New("modelio: artifact kind mismatch")
	ErrInputDim    = errors.New("modelio: input dimension mismatch")
	ErrFingerprint = errors.New("modelio: encoder fingerprint mismatch")
	ErrCorrupt     = errors.New("modelio: corrupt artifact")
)

// maxFrame bounds a frame's declared length so a corrupt header cannot
// trigger a multi-gigabyte allocation.
const maxFrame = 1 << 30

const maxKindLen = 64

func writeHeader(w io.Writer, kind string, enc *encode.Encoder) error {
	if _, err := io.WriteString(w, magic); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(Version)); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(kind))); err != nil {
		return err
	}
	if _, err := io.WriteString(w, kind); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(enc.Dim())); err != nil {
		return err
	}
	return binary.Write(w, binary.LittleEndian, enc.Fingerprint())
}

func readHeader(r io.Reader, wantKind string, enc *encode.Encoder) error {
	var m [len(magic)]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(m[:]) != magic {
		return ErrBadMagic
	}
	var ver, kindLen uint32
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if ver != Version {
		return fmt.Errorf("%w: artifact is v%d, this build reads v%d", ErrVersion, ver, Version)
	}
	if err := binary.Read(r, binary.LittleEndian, &kindLen); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if kindLen > maxKindLen {
		return fmt.Errorf("%w: implausible kind length %d", ErrCorrupt, kindLen)
	}
	kind := make([]byte, kindLen)
	if _, err := io.ReadFull(r, kind); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if string(kind) != wantKind {
		return fmt.Errorf("%w: artifact is %q, want %q", ErrKind, kind, wantKind)
	}
	var dim uint32
	if err := binary.Read(r, binary.LittleEndian, &dim); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if int(dim) != enc.Dim() {
		return fmt.Errorf("%w: artifact encodes %d features, this schema encodes %d", ErrInputDim, dim, enc.Dim())
	}
	var fp uint64
	if err := binary.Read(r, binary.LittleEndian, &fp); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if fp != enc.Fingerprint() {
		return fmt.Errorf("%w: artifact %016x, schema %016x", ErrFingerprint, fp, enc.Fingerprint())
	}
	return nil
}

func writeFrame(w io.Writer, payload []byte) error {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

func readFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated frame header: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: implausible frame length %d", ErrCorrupt, n)
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("%w: truncated frame: %v", ErrCorrupt, err)
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// frame runs a gob-producing save function into a byte frame.
func frame(save func(io.Writer) error) ([]byte, error) {
	var b bytes.Buffer
	if err := save(&b); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// SaveTreeModel writes a standalone tree model (TLSTM, Flow-Loss, or any
// core.TrainTreeModel output) as a versioned artifact.
func SaveTreeModel(w io.Writer, m *treenn.TreeModel, enc *encode.Encoder) error {
	if err := writeHeader(w, KindTree, enc); err != nil {
		return err
	}
	p, err := frame(func(w io.Writer) error { return core.SaveTreeModel(w, m) })
	if err != nil {
		return err
	}
	return writeFrame(w, p)
}

// LoadTreeModel reads an artifact written by SaveTreeModel, validating the
// format version and the encoder's dimension and fingerprint.
func LoadTreeModel(r io.Reader, enc *encode.Encoder) (*treenn.TreeModel, error) {
	if err := readHeader(r, KindTree, enc); err != nil {
		return nil, err
	}
	p, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	m, err := core.LoadTreeModel(bytes.NewReader(p), enc)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, nil
}

// SaveLPCEI writes the distilled student and its teacher as one artifact.
func SaveLPCEI(w io.Writer, l *core.LPCEI, enc *encode.Encoder) error {
	if err := writeHeader(w, KindLPCEI, enc); err != nil {
		return err
	}
	for _, m := range []*treenn.TreeModel{l.Model, l.Teacher} {
		p, err := frame(func(w io.Writer) error { return core.SaveTreeModel(w, m) })
		if err != nil {
			return err
		}
		if err := writeFrame(w, p); err != nil {
			return err
		}
	}
	return nil
}

// LoadLPCEI reads an artifact written by SaveLPCEI.
func LoadLPCEI(r io.Reader, enc *encode.Encoder) (*core.LPCEI, error) {
	if err := readHeader(r, KindLPCEI, enc); err != nil {
		return nil, err
	}
	models := make([]*treenn.TreeModel, 2)
	for i := range models {
		p, err := readFrame(r)
		if err != nil {
			return nil, err
		}
		if models[i], err = core.LoadTreeModel(bytes.NewReader(p), enc); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	return &core.LPCEI{Model: models[0], Teacher: models[1], Enc: enc}, nil
}

// SaveRefiner writes a trained LPCE-R composite (all modules plus the
// connect layer) as one artifact.
func SaveRefiner(w io.Writer, r *core.Refiner, enc *encode.Encoder) error {
	if err := writeHeader(w, KindRefiner, enc); err != nil {
		return err
	}
	p, err := frame(func(w io.Writer) error { return core.SaveRefiner(w, r) })
	if err != nil {
		return err
	}
	return writeFrame(w, p)
}

// LoadRefiner reads an artifact written by SaveRefiner. The encoder and
// database are runtime dependencies; the header's fingerprint check ensures
// they match the training-time schema.
func LoadRefiner(rd io.Reader, enc *encode.Encoder, db *storage.Database) (*core.Refiner, error) {
	if err := readHeader(rd, KindRefiner, enc); err != nil {
		return nil, err
	}
	p, err := readFrame(rd)
	if err != nil {
		return nil, err
	}
	r, err := core.LoadRefiner(bytes.NewReader(p), enc, db)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return r, nil
}

// SaveMSCN writes a trained MSCN baseline as an artifact.
func SaveMSCN(w io.Writer, m *baselines.MSCN, enc *encode.Encoder) error {
	if err := writeHeader(w, KindMSCN, enc); err != nil {
		return err
	}
	p, err := frame(func(w io.Writer) error { return baselines.SaveMSCN(w, m) })
	if err != nil {
		return err
	}
	return writeFrame(w, p)
}

// LoadMSCN reads an artifact written by SaveMSCN.
func LoadMSCN(r io.Reader, enc *encode.Encoder) (*baselines.MSCN, error) {
	if err := readHeader(r, KindMSCN, enc); err != nil {
		return nil, err
	}
	p, err := readFrame(r)
	if err != nil {
		return nil, err
	}
	m, err := baselines.LoadMSCN(bytes.NewReader(p), enc.Schema)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	return m, nil
}

// Artifact file names inside a model directory written by Set.Save.
const (
	FileLPCEI    = "lpcei.model"
	FileRefiner  = "refiner.model"
	FileTLSTM    = "tlstm.model"
	FileFlowLoss = "flowloss.model"
	FileMSCN     = "mscn.model"
)

// Set bundles every SGD-trained model of one experiment environment — the
// artifacts cmd/lpce-train produces and cmd/lpce-bench consumes. The
// data-driven estimators (NeuroCard, DeepDB, FLAT, UAE) are rebuilt from
// the generated data and are not serialized.
type Set struct {
	LPCEI    *core.LPCEI
	Refiner  *core.Refiner
	TLSTM    *treenn.TreeModel
	FlowLoss *treenn.TreeModel
	MSCN     *baselines.MSCN
}

func saveFile(path string, save func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := save(f); err != nil {
		f.Close()
		return fmt.Errorf("modelio: write %s: %w", path, err)
	}
	return f.Close()
}

func loadFile[T any](path string, load func(io.Reader) (T, error)) (T, error) {
	f, err := os.Open(path)
	if err != nil {
		var zero T
		return zero, err
	}
	defer f.Close()
	v, err := load(f)
	if err != nil {
		var zero T
		return zero, fmt.Errorf("modelio: load %s: %w", path, err)
	}
	return v, nil
}

// Save writes every model in the set into dir (created if needed).
func (s *Set) Save(dir string, enc *encode.Encoder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	steps := []struct {
		name string
		save func(io.Writer) error
	}{
		{FileLPCEI, func(w io.Writer) error { return SaveLPCEI(w, s.LPCEI, enc) }},
		{FileRefiner, func(w io.Writer) error { return SaveRefiner(w, s.Refiner, enc) }},
		{FileTLSTM, func(w io.Writer) error { return SaveTreeModel(w, s.TLSTM, enc) }},
		{FileFlowLoss, func(w io.Writer) error { return SaveTreeModel(w, s.FlowLoss, enc) }},
		{FileMSCN, func(w io.Writer) error { return SaveMSCN(w, s.MSCN, enc) }},
	}
	for _, st := range steps {
		if err := saveFile(filepath.Join(dir, st.name), st.save); err != nil {
			return err
		}
	}
	return nil
}

// LoadSet reads a complete artifact directory written by Set.Save. All five
// artifacts must be present and must validate against the encoder.
func LoadSet(dir string, enc *encode.Encoder, db *storage.Database) (*Set, error) {
	s := &Set{}
	var err error
	if s.LPCEI, err = loadFile(filepath.Join(dir, FileLPCEI), func(r io.Reader) (*core.LPCEI, error) {
		return LoadLPCEI(r, enc)
	}); err != nil {
		return nil, err
	}
	if s.Refiner, err = loadFile(filepath.Join(dir, FileRefiner), func(r io.Reader) (*core.Refiner, error) {
		return LoadRefiner(r, enc, db)
	}); err != nil {
		return nil, err
	}
	if s.TLSTM, err = loadFile(filepath.Join(dir, FileTLSTM), func(r io.Reader) (*treenn.TreeModel, error) {
		return LoadTreeModel(r, enc)
	}); err != nil {
		return nil, err
	}
	if s.FlowLoss, err = loadFile(filepath.Join(dir, FileFlowLoss), func(r io.Reader) (*treenn.TreeModel, error) {
		return LoadTreeModel(r, enc)
	}); err != nil {
		return nil, err
	}
	if s.MSCN, err = loadFile(filepath.Join(dir, FileMSCN), func(r io.Reader) (*baselines.MSCN, error) {
		return LoadMSCN(r, enc)
	}); err != nil {
		return nil, err
	}
	return s, nil
}
