package nn

import (
	"encoding/gob"
	"fmt"
)

// snapshot is the gob wire format for a parameter registry.
type snapshot struct {
	Names   []string
	Shapes  [][2]int
	Weights [][]float64
}

// EncodeGob writes the parameters as one message of an existing gob stream,
// so callers can interleave parameter snapshots with their own metadata
// (mixing several gob encoders on one writer corrupts the stream).
func (ps *Params) EncodeGob(enc *gob.Encoder) error {
	s := snapshot{}
	for _, p := range ps.list {
		s.Names = append(s.Names, p.Name)
		s.Shapes = append(s.Shapes, [2]int{p.Rows, p.Cols})
		s.Weights = append(s.Weights, p.Val)
	}
	return enc.Encode(s)
}

// DecodeGob reads one parameter snapshot from an existing gob stream. The
// snapshot must cover every parameter of the registry exactly once, with
// matching shapes, so a loaded model never keeps a random initial value; a
// snapshot that does not is rejected before any value is overwritten.
func (ps *Params) DecodeGob(dec *gob.Decoder) error {
	var s snapshot
	if err := dec.Decode(&s); err != nil {
		return fmt.Errorf("nn: decode snapshot: %w", err)
	}
	if len(s.Shapes) != len(s.Names) || len(s.Weights) != len(s.Names) {
		return fmt.Errorf("nn: snapshot has %d names, %d shapes, %d weight vectors",
			len(s.Names), len(s.Shapes), len(s.Weights))
	}
	if len(s.Names) != len(ps.list) {
		return fmt.Errorf("nn: snapshot has %d parameters, model has %d", len(s.Names), len(ps.list))
	}
	seen := make(map[string]bool, len(s.Names))
	for i, name := range s.Names {
		p := ps.Get(name)
		if p == nil {
			return fmt.Errorf("nn: snapshot parameter %q not in model", name)
		}
		if seen[name] {
			return fmt.Errorf("nn: snapshot repeats parameter %q", name)
		}
		seen[name] = true
		if p.Rows != s.Shapes[i][0] || p.Cols != s.Shapes[i][1] || len(s.Weights[i]) != len(p.Val) {
			return fmt.Errorf("nn: parameter %q shape mismatch: model %dx%d, snapshot %dx%d with %d weights",
				name, p.Rows, p.Cols, s.Shapes[i][0], s.Shapes[i][1], len(s.Weights[i]))
		}
	}
	for i, name := range s.Names {
		p := ps.Get(name)
		copy(p.Val, s.Weights[i])
		p.Fin.Reset()
	}
	return nil
}
