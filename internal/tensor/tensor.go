// Package tensor provides the dense float64 vector and matrix kernels that
// back the autodiff engine and the learned estimators. Everything is plain
// Go on contiguous slices: at the model sizes used by LPCE (hidden widths of
// 32–1024, plan trees with at most a few dozen nodes) scalar loops are more
// than fast enough and keep the package dependency-free.
package tensor

import (
	"fmt"
	"math"
)

// Vec is a dense column vector.
type Vec []float64

// NewVec returns a zeroed vector of length n.
func NewVec(n int) Vec { return make(Vec, n) }

// Clone returns a deep copy of v.
func (v Vec) Clone() Vec {
	out := make(Vec, len(v))
	copy(out, v)
	return out
}

// Zero sets every element of v to zero.
func (v Vec) Zero() {
	for i := range v {
		v[i] = 0
	}
}

// Fill sets every element of v to x.
func (v Vec) Fill(x float64) {
	for i := range v {
		v[i] = x
	}
}

// Dot returns the inner product of v and w. The vectors must have equal
// length.
func (v Vec) Dot(w Vec) float64 {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: dot length mismatch %d vs %d", len(v), len(w)))
	}
	var s float64
	for i := range v {
		s += v[i] * w[i]
	}
	return s
}

// Axpy computes v += alpha*w in place.
func (v Vec) Axpy(alpha float64, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range w {
		v[i] += alpha * w[i]
	}
}

// Add computes v += w in place.
func (v Vec) Add(w Vec) { v.Axpy(1, w) }

// Scale multiplies every element of v by alpha in place.
func (v Vec) Scale(alpha float64) {
	for i := range v {
		v[i] *= alpha
	}
}

// Norm2 returns the Euclidean norm of v.
func (v Vec) Norm2() float64 { return math.Sqrt(v.Dot(v)) }

// MaxAbs returns the largest absolute element of v, or 0 for an empty vector.
func (v Vec) MaxAbs() float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       Vec // len == Rows*Cols, row-major
}

// NewMat returns a zeroed Rows x Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: NewVec(rows * cols)}
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Mat) Row(i int) Vec { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// Zero sets every element of m to zero.
func (m *Mat) Zero() { m.Data.Zero() }

// MatVec computes out = m * x. out must have length m.Rows and x length
// m.Cols; out is overwritten.
//
// Each out[i] is the sum of row[j]*x[j] over ascending j, starting from +0.
// When at most a quarter of x is nonzero — a plan node's feature vector has
// a handful of nonzeros in some 145 columns — only the nonzero columns are
// summed, in the same ascending order, and the result is bitwise the dense
// one: a finite weight times ±0 is ±0, and adding ±0 leaves any accumulator
// but −0 unchanged; the accumulator is never −0, since it starts at +0 and a
// round-to-nearest sum is −0 only when both operands are. A NaN or ±Inf
// weight would turn its skipped product into NaN, so the sparse path runs
// only over a matrix whose weights are all finite.
func (m *Mat) MatVec(x, out Vec) {
	if len(x) != m.Cols || len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: matvec shape mismatch: %dx%d * %d -> %d",
			m.Rows, m.Cols, len(x), len(out)))
	}
	var buf [sparseMax]int32
	if nz, ok := nonzeroCols(x, buf[:0]); ok && allFinite(m.Data) {
		for i := range out {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			var s float64
			for _, j := range nz {
				s += row[j] * x[j]
			}
			out[i] = s
		}
		return
	}
	for i := range out {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		row = row[:len(x)] // lets the compiler drop the per-element bounds check
		var s float64
		for j, xj := range x {
			s += row[j] * xj
		}
		out[i] = s
	}
}

// sparseMax is the most nonzero columns MatVec's sparse path gathers.
const sparseMax = 64

// nonzeroCols appends the indices of x's nonzero elements (NaN included) to
// nz in ascending order, and reports whether they number at most a quarter
// of x and fit nz's capacity. Checking every weight costs about a quarter of
// a dense pass, so sparser inputs are the ones worth summing sparsely.
func nonzeroCols(x Vec, nz []int32) ([]int32, bool) {
	limit := min(len(x)/4, cap(nz))
	for j, v := range x {
		if v != 0 {
			if len(nz) == limit {
				return nz, false
			}
			nz = append(nz, int32(j))
		}
	}
	return nz, true
}

// allFinite reports whether v holds no NaN or ±Inf. It sums v in six
// independent chains, so the adds overlap instead of waiting on each other
// (more chains spill registers): a non-finite addend makes its chain's sum
// non-finite for good, as Inf+finite is Inf and Inf−Inf and NaN+anything are
// NaN. A finite sum that overflows also reads as non-finite, which merely
// sends MatVec down its dense path.
func allFinite(v Vec) bool {
	var s0, s1, s2, s3, s4, s5 float64
	n := len(v) - len(v)%6
	for i := 0; i < n; i += 6 {
		w := v[i : i+6 : i+6]
		s0 += w[0]
		s1 += w[1]
		s2 += w[2]
		s3 += w[3]
		s4 += w[4]
		s5 += w[5]
	}
	for _, x := range v[n:] {
		s0 += x
	}
	s := ((s0 + s1) + (s2 + s3)) + (s4 + s5)
	return s-s == 0
}

// MatVecT computes out += mᵀ * x (the transpose product), used by the
// backward pass of a linear layer. x must have length m.Rows and out length
// m.Cols.
func (m *Mat) MatVecT(x, out Vec) {
	if len(x) != m.Rows || len(out) != m.Cols {
		panic(fmt.Sprintf("tensor: matvecT shape mismatch: (%dx%d)ᵀ * %d -> %d",
			m.Rows, m.Cols, len(x), len(out)))
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range row {
			out[j] += xi * row[j]
		}
	}
}

// AddOuter computes m += alpha * (x ⊗ y), i.e. m[i][j] += alpha*x[i]*y[j].
// Used to accumulate weight gradients.
func (m *Mat) AddOuter(alpha float64, x, y Vec) {
	if len(x) != m.Rows || len(y) != m.Cols {
		panic(fmt.Sprintf("tensor: outer shape mismatch: %d ⊗ %d into %dx%d",
			len(x), len(y), m.Rows, m.Cols))
	}
	for i := range x {
		xi := alpha * x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j := range y {
			row[j] += xi * y[j]
		}
	}
}

// Arena hands out vectors carved from one growing float64 buffer, so a
// forward pass that needs a few dozen short-lived activations costs no heap
// allocation once the buffer has reached its working size. Vectors stay
// valid until the next Reset. An Arena is not safe for concurrent use.
type Arena struct {
	buf []float64
	off int
}

// NewArena returns an arena with room for n floats before it first grows.
func NewArena(n int) *Arena { return &Arena{buf: make([]float64, n)} }

// Vec carves an n-vector whose contents are unspecified; the caller must
// overwrite every element. When the buffer is exhausted a larger one
// replaces it (vectors carved earlier keep the old buffer alive).
func (a *Arena) Vec(n int) Vec {
	if a.off+n > len(a.buf) {
		a.buf = make([]float64, 2*len(a.buf)+n)
		a.off = 0
	}
	v := a.buf[a.off : a.off+n : a.off+n]
	a.off += n
	return v
}

// Zeros carves a zeroed n-vector.
func (a *Arena) Zeros(n int) Vec {
	v := a.Vec(n)
	v.Zero()
	return v
}

// Reset makes the whole buffer available again, invalidating every vector
// carved since the previous Reset.
func (a *Arena) Reset() { a.off = 0 }
