// Package modelio implements the versioned on-disk format for a trained
// model set, decoupling training (cmd/lpce-train) from evaluation and
// serving (-models-in, the server's model hot-swap).
//
// A model directory holds one file: a fixed binary header followed by six
// length-prefixed, CRC32-checksummed frames in a fixed order — LPCE-I
// student, LPCE-I teacher, LPCE-R, TLSTM, Flow-Loss, MSCN. The header
// carries the format version and two compatibility checks: the encoder's
// base feature dimension and its schema fingerprint
// (encode.Encoder.Fingerprint). A set trained against one schema therefore
// cannot be silently loaded against another — or against the same schema
// with different column statistics, which would shift every operand
// feature. Each frame holds one gob payload produced by the core/baselines
// persistence code; framing keeps the payloads independent (sequential gob
// decoders on one stream over-read) and lets truncation and bit-rot be
// detected before gob sees the bytes.
package modelio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"github.com/lpce-db/lpce/internal/baselines"
	"github.com/lpce-db/lpce/internal/core"
	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/treenn"
)

// magic identifies model set files.
const magic = "LPCEMODL"

// Version is the current format version. Readers reject any other version
// outright; there is no cross-version migration (a set written by an older
// build is retrained with cmd/lpce-train).
const Version = 2

// setFile is the one file Set.Save writes inside a model directory.
const setFile = "models.lpce"

// Sentinel load errors, matchable with errors.Is.
var (
	ErrBadMagic    = errors.New("modelio: not a model set file")
	ErrVersion     = errors.New("modelio: unsupported model set version")
	ErrInputDim    = errors.New("modelio: input dimension mismatch")
	ErrFingerprint = errors.New("modelio: encoder fingerprint mismatch")
	ErrCorrupt     = errors.New("modelio: corrupt model set file")
)

// maxFrame bounds a frame's declared length so a corrupt header cannot
// trigger a multi-gigabyte allocation.
const maxFrame = 1 << 30

// writeHeader and writeFrame append to an in-memory buffer, whose writes
// cannot fail; Save writes the finished file in one call.
func writeHeader(w *bytes.Buffer, enc *encode.Encoder) {
	w.WriteString(magic)
	binary.Write(w, binary.LittleEndian, uint32(Version))
	binary.Write(w, binary.LittleEndian, uint32(enc.Dim()))
	binary.Write(w, binary.LittleEndian, enc.Fingerprint())
}

func readHeader(r io.Reader, enc *encode.Encoder) error {
	var m [len(magic)]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("%w: %v", ErrBadMagic, err)
	}
	if string(m[:]) != magic {
		return ErrBadMagic
	}
	var ver uint32
	if err := binary.Read(r, binary.LittleEndian, &ver); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if ver != Version {
		return fmt.Errorf("%w: file is v%d, this build reads v%d (retrain with lpce-train)", ErrVersion, ver, Version)
	}
	var dim uint32
	if err := binary.Read(r, binary.LittleEndian, &dim); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if int(dim) != enc.Dim() {
		return fmt.Errorf("%w: set encodes %d features, this schema encodes %d", ErrInputDim, dim, enc.Dim())
	}
	var fp uint64
	if err := binary.Read(r, binary.LittleEndian, &fp); err != nil {
		return fmt.Errorf("%w: truncated header: %v", ErrCorrupt, err)
	}
	if fp != enc.Fingerprint() {
		return fmt.Errorf("%w: set %016x, schema %016x", ErrFingerprint, fp, enc.Fingerprint())
	}
	return nil
}

func writeFrame(w *bytes.Buffer, payload []byte) {
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
	w.Write(hdr[:])
	w.Write(payload)
}

// readFrame reads one frame of a file held in memory, so a declared length
// past the end of the file is refused before anything is allocated for it.
func readFrame(r *bytes.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: truncated frame header: %v", ErrCorrupt, err)
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrame {
		return nil, fmt.Errorf("%w: implausible frame length %d", ErrCorrupt, n)
	}
	if int64(n) > int64(r.Len()) {
		return nil, fmt.Errorf("%w: truncated frame: %d bytes declared, %d left", ErrCorrupt, n, r.Len())
	}
	payload := make([]byte, n)
	io.ReadFull(r, payload)
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, fmt.Errorf("%w: frame checksum mismatch", ErrCorrupt)
	}
	return payload, nil
}

// Set bundles every SGD-trained model of one experiment environment — what
// cmd/lpce-train produces and cmd/lpce-bench, cmd/lpce-sql and the server
// consume. The data-driven estimators (NeuroCard, DeepDB, FLAT, UAE) are
// rebuilt from the generated data and are not serialized.
type Set struct {
	LPCEI    *core.LPCEI
	Refiner  *core.Refiner
	TLSTM    *treenn.TreeModel
	FlowLoss *treenn.TreeModel
	MSCN     *baselines.MSCN
}

// payloads returns the gob writers of the set's frames, in file order.
func (s *Set) payloads() []func(io.Writer) error {
	tree := func(m *treenn.TreeModel) func(io.Writer) error {
		return func(w io.Writer) error { return core.SaveTreeModel(w, m) }
	}
	return []func(io.Writer) error{
		tree(s.LPCEI.Model),
		tree(s.LPCEI.Teacher),
		func(w io.Writer) error { return core.SaveRefiner(w, s.Refiner) },
		tree(s.TLSTM),
		tree(s.FlowLoss),
		func(w io.Writer) error { return baselines.SaveMSCN(w, s.MSCN) },
	}
}

// Save writes the set as one file in dir (created if needed).
func (s *Set) Save(dir string, enc *encode.Encoder) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	var b bytes.Buffer
	writeHeader(&b, enc)
	for _, save := range s.payloads() {
		var p bytes.Buffer
		if err := save(&p); err != nil {
			return fmt.Errorf("modelio: encode model set: %w", err)
		}
		writeFrame(&b, p.Bytes())
	}
	return os.WriteFile(filepath.Join(dir, setFile), b.Bytes(), 0o644)
}

// LoadSet reads the model set Set.Save wrote in dir. The file must carry
// all six models and validate against the encoder; the encoder and
// database are runtime dependencies of the loaded models.
func LoadSet(dir string, enc *encode.Encoder, db *storage.Database) (*Set, error) {
	path := filepath.Join(dir, setFile)
	raw, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		// A v1 directory held one file per model, lpcei.model among them.
		if _, v1 := os.Stat(filepath.Join(dir, "lpcei.model")); v1 == nil {
			return nil, fmt.Errorf("modelio: load %s: %w: v1 per-model files, this build reads v%d (retrain with lpce-train)", dir, ErrVersion, Version)
		}
	}
	if err != nil {
		return nil, err
	}
	s, err := decodeSet(bytes.NewReader(raw), enc, db)
	if err != nil {
		return nil, fmt.Errorf("modelio: load %s: %w", path, err)
	}
	return s, nil
}

func decodeSet(r *bytes.Reader, enc *encode.Encoder, db *storage.Database) (*Set, error) {
	if err := readHeader(r, enc); err != nil {
		return nil, err
	}
	s := &Set{LPCEI: &core.LPCEI{Enc: enc}}
	tree := func(m **treenn.TreeModel) func(io.Reader) error {
		return func(p io.Reader) (err error) {
			*m, err = core.LoadTreeModel(p, enc)
			return err
		}
	}
	loads := []func(io.Reader) error{
		tree(&s.LPCEI.Model),
		tree(&s.LPCEI.Teacher),
		func(p io.Reader) (err error) {
			s.Refiner, err = core.LoadRefiner(p, enc, db)
			return err
		},
		tree(&s.TLSTM),
		tree(&s.FlowLoss),
		func(p io.Reader) (err error) {
			s.MSCN, err = baselines.LoadMSCN(p, enc.Schema)
			return err
		},
	}
	for _, load := range loads {
		p, err := readFrame(r)
		if err != nil {
			return nil, err
		}
		if err := load(bytes.NewReader(p)); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
		}
	}
	if r.Len() != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Len())
	}
	return s, nil
}
