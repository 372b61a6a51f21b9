package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"os"

	"github.com/lpce-db/lpce/internal/encode"
	"github.com/lpce-db/lpce/internal/storage"
	"github.com/lpce-db/lpce/internal/treenn"
)

// Model persistence: saved models are self-describing (architecture
// metadata travels with the weights) so deployments load them without
// reconstructing training configuration.

type treeModelSpec struct {
	Cfg    treenn.Config
	LogMax float64
}

// SaveTreeModel writes a tree model (architecture + weights) to w.
func SaveTreeModel(w io.Writer, m *treenn.TreeModel) error {
	return encodeTreeModel(gob.NewEncoder(w), m)
}

func encodeTreeModel(enc *gob.Encoder, m *treenn.TreeModel) error {
	if err := enc.Encode(treeModelSpec{Cfg: m.Cfg, LogMax: m.LogMax}); err != nil {
		return fmt.Errorf("core: encode model spec: %w", err)
	}
	return m.Params.EncodeGob(enc)
}

// LoadTreeModel reconstructs a tree model previously written by
// SaveTreeModel for the encoder it will run with. A spec that does not fit
// the encoder, or weights that do not cover the model, are an error.
func LoadTreeModel(r io.Reader, enc *encode.Encoder) (*treenn.TreeModel, error) {
	return decodeTreeModel(gob.NewDecoder(r), enc.Dim())
}

// maxWidth bounds every decoded layer width, so a corrupt spec cannot ask
// for an outsized allocation before its weights are read.
const maxWidth = 1 << 10

// validate checks a decoded spec before any of its layers is allocated.
func (s treeModelSpec) validate(inputDim int) error {
	c := s.Cfg
	switch {
	case c.InputDim != inputDim:
		return fmt.Errorf("core: model input dimension %d, want %d", c.InputDim, inputDim)
	case c.Hidden <= 0 || c.Hidden > maxWidth || c.OutWidth <= 0 || c.OutWidth > maxWidth:
		return fmt.Errorf("core: model widths hidden=%d out=%d outside [1, %d]", c.Hidden, c.OutWidth, maxWidth)
	case c.Cell != treenn.CellSRU && c.Cell != treenn.CellLSTM:
		return fmt.Errorf("core: unknown cell kind %d", c.Cell)
	case math.IsNaN(s.LogMax) || math.IsInf(s.LogMax, 0):
		return fmt.Errorf("core: non-finite LogMax %v", s.LogMax)
	}
	return nil
}

func decodeTreeModel(dec *gob.Decoder, inputDim int) (*treenn.TreeModel, error) {
	var spec treeModelSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("core: decode model spec: %w", err)
	}
	if err := spec.validate(inputDim); err != nil {
		return nil, err
	}
	m := treenn.NewTreeModel(spec.Cfg)
	m.LogMax = spec.LogMax
	if err := m.Params.DecodeGob(dec); err != nil {
		return nil, err
	}
	return m, nil
}

// SaveTreeModelFile writes the model to path.
func SaveTreeModelFile(path string, m *treenn.TreeModel) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := SaveTreeModel(f, m); err != nil {
		return err
	}
	return f.Close()
}

// LoadTreeModelFile loads a model for enc from path.
func LoadTreeModelFile(path string, enc *encode.Encoder) (*treenn.TreeModel, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadTreeModel(f, enc)
}

type refinerSpec struct {
	Kind       RefinerKind
	LogMax     float64
	HasContent bool
	HasRefine  bool
	HasConnect bool
	ConnectDim int
}

// SaveRefiner writes a trained LPCE-R (all modules plus the connect layer)
// to w.
func SaveRefiner(w io.Writer, r *Refiner) error {
	enc := gob.NewEncoder(w)
	spec := refinerSpec{
		Kind: r.Kind, LogMax: r.LogMax,
		HasContent: r.Content != nil,
		HasRefine:  r.Refine != nil,
		HasConnect: r.Connect != nil,
	}
	if r.Connect != nil {
		spec.ConnectDim = r.CardM.Cfg.Hidden
	}
	if err := enc.Encode(spec); err != nil {
		return fmt.Errorf("core: encode refiner spec: %w", err)
	}
	if err := encodeTreeModel(enc, r.CardM); err != nil {
		return err
	}
	if r.Content != nil {
		if err := encodeTreeModel(enc, r.Content); err != nil {
			return err
		}
	}
	if r.Refine != nil {
		if err := encodeTreeModel(enc, r.Refine); err != nil {
			return err
		}
	}
	if r.Connect != nil {
		if err := r.Connect.Params.EncodeGob(enc); err != nil {
			return err
		}
	}
	return nil
}

// validate checks a decoded refiner spec: a known kind whose module flags
// match what SaveRefiner writes for it, and a finite LogMax.
func (s refinerSpec) validate() error {
	var want [3]bool // content, refine, connect
	switch s.Kind {
	case RefinerFull:
		want = [3]bool{true, true, true}
	case RefinerSingle:
	case RefinerTwo:
		want = [3]bool{false, true, false}
	default:
		return fmt.Errorf("core: unknown refiner kind %d", s.Kind)
	}
	if [3]bool{s.HasContent, s.HasRefine, s.HasConnect} != want {
		return fmt.Errorf("core: %s refiner with modules content=%v refine=%v connect=%v",
			s.Kind, s.HasContent, s.HasRefine, s.HasConnect)
	}
	if math.IsNaN(s.LogMax) || math.IsInf(s.LogMax, 0) {
		return fmt.Errorf("core: non-finite refiner LogMax %v", s.LogMax)
	}
	return nil
}

// LoadRefiner reconstructs a refiner written by SaveRefiner. The encoder
// and database are runtime dependencies that do not travel with the
// weights; they must match the ones used at training time. Every module
// must fit the encoder and share the cardinality module's width.
func LoadRefiner(rd io.Reader, enc *encode.Encoder, db *storage.Database) (*Refiner, error) {
	dec := gob.NewDecoder(rd)
	var spec refinerSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("core: decode refiner spec: %w", err)
	}
	if err := spec.validate(); err != nil {
		return nil, err
	}
	r := &Refiner{Kind: spec.Kind, LogMax: spec.LogMax, Enc: enc, DB: db}
	var err error
	if r.CardM, err = decodeTreeModel(dec, enc.DimWithCards()); err != nil {
		return nil, err
	}
	hidden := r.CardM.Cfg.Hidden
	module := func() (*treenn.TreeModel, error) {
		m, err := decodeTreeModel(dec, enc.Dim())
		if err == nil && m.Cfg.Hidden != hidden {
			err = fmt.Errorf("core: refiner module width %d, cardinality module %d", m.Cfg.Hidden, hidden)
		}
		return m, err
	}
	if spec.HasContent {
		if r.Content, err = module(); err != nil {
			return nil, err
		}
	}
	if spec.HasRefine {
		if r.Refine, err = module(); err != nil {
			return nil, err
		}
	}
	if spec.HasConnect {
		if spec.ConnectDim != hidden {
			return nil, fmt.Errorf("core: connect layer width %d, cardinality module %d", spec.ConnectDim, hidden)
		}
		r.Connect = NewConnectLayer(spec.ConnectDim, 0)
		if err := r.Connect.Params.DecodeGob(dec); err != nil {
			return nil, err
		}
	}
	return r, nil
}
