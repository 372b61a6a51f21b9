package baselines

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"github.com/lpce-db/lpce/internal/catalog"
)

// mscnSpec is the architecture metadata that travels with MSCN weights; the
// set-MLP dimensions themselves derive from the schema the loader supplies.
type mscnSpec struct {
	Hidden int
	LogMax float64
}

// maxHidden bounds a decoded MSCN width, so a corrupt spec cannot ask for an
// outsized allocation before its weights are read.
const maxHidden = 1 << 10

// SaveMSCN writes a trained MSCN (architecture + weights) to w.
func SaveMSCN(w io.Writer, m *MSCN) error {
	enc := gob.NewEncoder(w)
	if err := enc.Encode(mscnSpec{Hidden: m.hidden, LogMax: m.LogMax}); err != nil {
		return fmt.Errorf("baselines: encode mscn spec: %w", err)
	}
	return m.Params.EncodeGob(enc)
}

// LoadMSCN reconstructs an MSCN written by SaveMSCN. The schema is a runtime
// dependency that does not travel with the weights; it must match the one
// used at training time (modelio's encoder fingerprint enforces this for
// model set files). A width outside [1, maxHidden] or weights that do not
// cover the model are an error.
func LoadMSCN(r io.Reader, schema *catalog.Schema) (*MSCN, error) {
	dec := gob.NewDecoder(r)
	var spec mscnSpec
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("baselines: decode mscn spec: %w", err)
	}
	if spec.Hidden <= 0 || spec.Hidden > maxHidden {
		return nil, fmt.Errorf("baselines: mscn hidden width %d outside [1, %d]", spec.Hidden, maxHidden)
	}
	if math.IsNaN(spec.LogMax) || math.IsInf(spec.LogMax, 0) {
		return nil, fmt.Errorf("baselines: non-finite mscn LogMax %v", spec.LogMax)
	}
	m := NewMSCN(MSCNConfig{Hidden: spec.Hidden}, schema)
	m.LogMax = spec.LogMax
	if err := m.Params.DecodeGob(dec); err != nil {
		return nil, err
	}
	return m, nil
}
