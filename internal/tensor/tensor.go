// Package tensor provides the dense float64 vector and matrix kernels that
// back the autodiff engine and the learned estimators. Everything is plain
// Go on contiguous slices: at the model sizes used by LPCE (hidden widths of
// 32–1024, plan trees with at most a few dozen nodes) scalar loops are more
// than fast enough and keep the package dependency-free.
package tensor

import (
	"fmt"
	"math"
	"sync/atomic"
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
		s += float64(v[i] * w[i])
	}
	return s
}

// Axpy computes v += alpha*w in place.
func (v Vec) Axpy(alpha float64, w Vec) {
	if len(v) != len(w) {
		panic(fmt.Sprintf("tensor: axpy length mismatch %d vs %d", len(v), len(w)))
	}
	for i := range w {
		v[i] += float64(alpha * w[i])
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

	// Fin, when set, memoizes whether Data is all finite for MatVec's sparse
	// path; every writer of Data must then call Fin.Reset. Nil means MatVec
	// checks the weights on every sparse call.
	Fin *Finite
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

// Clone returns a deep copy of m, without its finiteness memo.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: m.Data.Clone()}
}

// Zero sets every element of m to zero.
func (m *Mat) Zero() { m.Data.Zero() }

// MatVec computes out = m * x. out must have length m.Rows and x length
// m.Cols; out is overwritten.
//
// Each out[i] is the sum of row[j]*x[j] over ascending j, starting from +0.
// Rows are taken four at a time, each with its own accumulator, so the four
// add chains overlap instead of waiting on one another; every out[i] still
// sees exactly the adds of a one-row loop, in the same order, so blocking
// changes no bit. When at most a quarter of x is nonzero — a plan node's
// feature vector has a handful of nonzeros in some 145 columns — only the
// nonzero columns are summed, in the same ascending order, and the result is
// bitwise the dense one: a finite weight times ±0 is ±0, and adding ±0
// leaves any accumulator but −0 unchanged; the accumulator is never −0,
// since it starts at +0 and a round-to-nearest sum is −0 only when both
// operands are. A NaN or ±Inf weight would turn its skipped product into
// NaN, so the sparse path runs only over a matrix whose weights are all
// finite, as m.Fin remembers or a scan of m.Data finds.
//
// Every product is converted to float64 before it is added: without the
// conversion the Go compiler may fuse the multiply and the add into one
// rounding (arm64 does), and results would depend on the CPU.
func (m *Mat) MatVec(x, out Vec) {
	if len(x) != m.Cols || len(out) != m.Rows {
		panic(fmt.Sprintf("tensor: matvec shape mismatch: %dx%d * %d -> %d",
			m.Rows, m.Cols, len(x), len(out)))
	}
	var buf [sparseMax]int32
	if nz, ok := nonzeroCols(x, buf[:0]); ok && m.Fin.allFinite(m.Data) {
		m.sparseMatVec(x, nz, out)
		return
	}
	// Rows resliced to [:n] have len(x) elements, which lets the compiler
	// drop the per-element bounds checks.
	n := len(x)
	i := 0
	for ; i+4 <= len(out); i += 4 {
		r0 := m.Data[i*n:][:n]
		r1 := m.Data[(i+1)*n:][:n]
		r2 := m.Data[(i+2)*n:][:n]
		r3 := m.Data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for j, xj := range x {
			s0 += float64(r0[j] * xj)
			s1 += float64(r1[j] * xj)
			s2 += float64(r2[j] * xj)
			s3 += float64(r3[j] * xj)
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < len(out); i++ {
		row := m.Data[i*n:][:n]
		var s float64
		for j, xj := range x {
			s += float64(row[j] * xj)
		}
		out[i] = s
	}
}

// sparseMatVec is MatVec over the nonzero columns nz of x only, four rows
// per pass as the dense loop.
func (m *Mat) sparseMatVec(x Vec, nz []int32, out Vec) {
	n := len(x)
	i := 0
	for ; i+4 <= len(out); i += 4 {
		r0 := m.Data[i*n:][:n]
		r1 := m.Data[(i+1)*n:][:n]
		r2 := m.Data[(i+2)*n:][:n]
		r3 := m.Data[(i+3)*n:][:n]
		var s0, s1, s2, s3 float64
		for _, j := range nz {
			xj := x[j]
			s0 += float64(r0[j] * xj)
			s1 += float64(r1[j] * xj)
			s2 += float64(r2[j] * xj)
			s3 += float64(r3[j] * xj)
		}
		out[i], out[i+1], out[i+2], out[i+3] = s0, s1, s2, s3
	}
	for ; i < len(out); i++ {
		row := m.Data[i*n:][:n]
		var s float64
		for _, j := range nz {
			s += float64(row[j] * x[j])
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

// Finite memoizes whether a matrix's weights are all finite, so MatVec's
// sparse path scans them once per change of the weights instead of once per
// call. It is a tri-state — unknown, finite, not finite — computed on first
// use; concurrent first uses each scan and store the same answer. A writer
// of the weights calls Reset after writing, and never runs concurrently
// with a MatVec over them (that would be a data race on the weights
// themselves). The zero value reads unknown.
type Finite struct{ state atomic.Uint32 }

const (
	finUnknown uint32 = iota
	finYes
	finNo
)

// Reset forgets the memoized answer. Resetting a nil *Finite does nothing.
func (f *Finite) Reset() {
	if f != nil {
		f.state.Store(finUnknown)
	}
}

// allFinite reports whether data holds no NaN or ±Inf, from the memo when
// it knows; a nil *Finite scans data every time.
func (f *Finite) allFinite(data Vec) bool {
	if f == nil {
		return allFinite(data)
	}
	switch f.state.Load() {
	case finYes:
		return true
	case finNo:
		return false
	}
	ok := allFinite(data)
	if ok {
		f.state.Store(finYes)
	} else {
		f.state.Store(finNo)
	}
	return ok
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
			out[j] += float64(xi * row[j])
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
			row[j] += float64(xi * y[j])
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
