package tensor

import (
	"math"
	"math/rand"
)

// RNG wraps math/rand with the initialization helpers the NN layers need.
// All randomness in the repository flows through explicitly seeded RNGs so
// every experiment is reproducible.
type RNG struct{ *rand.Rand }

// NewRNG returns a deterministic RNG for the given seed.
func NewRNG(seed int64) *RNG { return &RNG{rand.New(rand.NewSource(seed))} }

// FillUniform fills v with samples from U(lo, hi).
func (r *RNG) FillUniform(v Vec, lo, hi float64) {
	for i := range v {
		v[i] = lo + float64((hi-lo)*r.Float64())
	}
}

// FillNormal fills v with samples from N(mean, std²).
func (r *RNG) FillNormal(v Vec, mean, std float64) {
	for i := range v {
		v[i] = mean + float64(std*r.NormFloat64())
	}
}

// Xavier initializes a weight matrix with the Glorot-uniform scheme, the
// default for the fully-connected modules in LPCE.
func (r *RNG) Xavier(m *Mat) {
	bound := math.Sqrt(6.0 / float64(m.Rows+m.Cols))
	r.FillUniform(m.Data, -bound, bound)
}
