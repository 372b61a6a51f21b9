package tensor

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestVecDot(t *testing.T) {
	v := Vec{1, 2, 3}
	w := Vec{4, 5, 6}
	if got := v.Dot(w); !almostEq(got, 32) {
		t.Fatalf("dot = %v, want 32", got)
	}
}

func TestVecDotMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Vec{1}.Dot(Vec{1, 2})
}

func TestVecAxpy(t *testing.T) {
	v := Vec{1, 2}
	v.Axpy(2, Vec{10, 20})
	if v[0] != 21 || v[1] != 42 {
		t.Fatalf("axpy = %v", v)
	}
}

func TestVecScaleZeroFill(t *testing.T) {
	v := Vec{1, 2, 3}
	v.Scale(3)
	if v[2] != 9 {
		t.Fatalf("scale = %v", v)
	}
	v.Fill(7)
	if v[0] != 7 || v[1] != 7 {
		t.Fatalf("fill = %v", v)
	}
	v.Zero()
	if v.Norm2() != 0 {
		t.Fatalf("zero = %v", v)
	}
}

func TestVecCloneIndependent(t *testing.T) {
	v := Vec{1, 2}
	w := v.Clone()
	w[0] = 99
	if v[0] != 1 {
		t.Fatal("clone aliases original")
	}
}

func TestVecMaxAbs(t *testing.T) {
	if got := (Vec{-5, 3, 4}).MaxAbs(); got != 5 {
		t.Fatalf("maxabs = %v", got)
	}
	if got := (Vec{}).MaxAbs(); got != 0 {
		t.Fatalf("maxabs empty = %v", got)
	}
}

func TestMatVec(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, Vec{1, 2, 3, 4, 5, 6})
	out := NewVec(2)
	m.MatVec(Vec{1, 1, 1}, out)
	if !almostEq(out[0], 6) || !almostEq(out[1], 15) {
		t.Fatalf("matvec = %v", out)
	}
}

func TestMatVecT(t *testing.T) {
	m := NewMat(2, 3)
	copy(m.Data, Vec{1, 2, 3, 4, 5, 6})
	out := NewVec(3)
	m.MatVecT(Vec{1, 2}, out)
	// mᵀ * [1,2] = [1+8, 2+10, 3+12]
	want := Vec{9, 12, 15}
	for i := range want {
		if !almostEq(out[i], want[i]) {
			t.Fatalf("matvecT = %v, want %v", out, want)
		}
	}
}

func TestMatAddOuter(t *testing.T) {
	m := NewMat(2, 2)
	m.AddOuter(2, Vec{1, 2}, Vec{3, 4})
	want := Vec{6, 8, 12, 16}
	for i := range want {
		if !almostEq(m.Data[i], want[i]) {
			t.Fatalf("outer = %v, want %v", m.Data, want)
		}
	}
}

func TestMatAtSetRow(t *testing.T) {
	m := NewMat(3, 2)
	m.Set(2, 1, 42)
	if m.At(2, 1) != 42 {
		t.Fatal("At/Set roundtrip failed")
	}
	if m.Row(2)[1] != 42 {
		t.Fatal("Row does not alias storage")
	}
	m2 := m.Clone()
	m2.Set(2, 1, 0)
	if m.At(2, 1) != 42 {
		t.Fatal("Clone aliases original")
	}
	m.Zero()
	if m.At(2, 1) != 0 {
		t.Fatal("Zero failed")
	}
}

// Property: MatVecT is the true transpose of MatVec, i.e. ⟨Ax, y⟩ == ⟨x, Aᵀy⟩.
func TestMatVecTransposeAdjointProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		rows, cols := 1+r.Intn(8), 1+r.Intn(8)
		m := NewMat(rows, cols)
		r.FillNormal(m.Data, 0, 1)
		x, y := NewVec(cols), NewVec(rows)
		r.FillNormal(x, 0, 1)
		r.FillNormal(y, 0, 1)
		ax := NewVec(rows)
		m.MatVec(x, ax)
		aty := NewVec(cols)
		m.MatVecT(y, aty)
		return math.Abs(ax.Dot(y)-x.Dot(aty)) < 1e-8
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: AddOuter(a, x, y) then MatVec(z) equals a*x*(y·z) for rank-1
// matrices.
func TestAddOuterRankOneProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := NewRNG(seed)
		rows, cols := 1+r.Intn(6), 1+r.Intn(6)
		x, y, z := NewVec(rows), NewVec(cols), NewVec(cols)
		r.FillNormal(x, 0, 1)
		r.FillNormal(y, 0, 1)
		r.FillNormal(z, 0, 1)
		m := NewMat(rows, cols)
		m.AddOuter(1.5, x, y)
		out := NewVec(rows)
		m.MatVec(z, out)
		dot := y.Dot(z)
		for i := range out {
			if math.Abs(out[i]-1.5*x[i]*dot) > 1e-8 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewVec(16), NewVec(16)
	NewRNG(7).FillNormal(a, 0, 1)
	NewRNG(7).FillNormal(b, 0, 1)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed should give identical samples")
		}
	}
}

func TestXavierBound(t *testing.T) {
	m := NewMat(10, 30)
	NewRNG(1).Xavier(m)
	bound := math.Sqrt(6.0 / 40.0)
	for _, x := range m.Data {
		if math.Abs(x) > bound {
			t.Fatalf("xavier sample %v outside bound %v", x, bound)
		}
	}
	if m.Data.MaxAbs() == 0 {
		t.Fatal("xavier left matrix zeroed")
	}
}

// denseMatVec is the plain dense product, one row at a time, every column
// summed in ascending order with each product rounded before its add. It is
// the oracle TestMatVecMatchesDense holds MatVec to, bit for bit.
func denseMatVec(m *Mat, x, out Vec) {
	for i := 0; i < m.Rows; i++ {
		var s float64
		for j := 0; j < m.Cols; j++ {
			s += float64(m.Data[i*m.Cols+j] * x[j])
		}
		out[i] = s
	}
}

// special draws the value of one nonzero element: mostly normal, sometimes a
// subnormal, and — when wild is set — sometimes NaN or ±Inf.
func special(r *RNG, wild bool) float64 {
	switch k := r.Intn(40); {
	case k == 0:
		return math.SmallestNonzeroFloat64 * float64(1+r.Intn(1000))
	case k == 1:
		return -0x1p-1030
	case k == 2 && wild:
		return math.NaN()
	case k == 3 && wild:
		return math.Inf(1)
	case k == 4 && wild:
		return math.Inf(-1)
	default:
		return r.NormFloat64()
	}
}

// TestMatVecMatchesDense compares MatVec with the dense reference loop by
// Float64bits over widths 1-300, input densities 0-1 and 1-9 rows: two full
// four-row blocks and every remainder from 0 to 3 rows. Zero inputs are a
// mix of +0 and -0; nonzero inputs and weights include subnormals; some
// inputs carry NaN or ±Inf; and some matrices put NaN or ±Inf weights in the
// columns where x is zero, which the sparse path skips and must still
// propagate exactly as the dense sum does.
func TestMatVecMatchesDense(t *testing.T) {
	r := NewRNG(11)
	densities := []float64{0, 0.01, 0.03, 0.1, 0.25, 0.5, 0.75, 1}
	for cols := 1; cols <= 300; cols++ {
		for _, density := range densities {
			for variant := 0; variant < 4; variant++ {
				wildX, wildW := variant&1 != 0, variant&2 != 0
				rows := 1 + r.Intn(9)
				m := NewMat(rows, cols)
				for i := range m.Data {
					m.Data[i] = special(r, false)
				}
				x := NewVec(cols)
				for j := range x {
					switch {
					case r.Float64() < density:
						x[j] = special(r, wildX)
					case r.Intn(2) == 0:
						x[j] = math.Copysign(0, -1)
					}
				}
				if wildW {
					// poison a few weights in columns the sparse path skips
					for k := 0; k < 3; k++ {
						j := r.Intn(cols)
						if x[j] != 0 {
							continue
						}
						m.Set(r.Intn(rows), j, []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[k])
					}
				}
				got, want := NewVec(rows), NewVec(rows)
				m.MatVec(x, got)
				denseMatVec(m, x, want)
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%dx%d density %v variant %d: out[%d] = %v (%#x), dense %v (%#x)",
							rows, cols, density, variant, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	}
}

// BenchmarkMatVec measures the shapes inference multiplies: the dense
// hidden layers of the LPCE-I student (8x8) and of the refine model
// (32x32), the output layer's 64x32, and the 32-wide embedding layer over a
// 145-wide plan-node feature vector with four nonzeros, once scanning the
// weights for finiteness on every call and once through the memo the
// inference path keeps.
func BenchmarkMatVec(b *testing.B) {
	r := NewRNG(5)
	sparse := []int{1, 40, 41, 90}
	cases := []struct {
		name       string
		rows, cols int
		nonzero    []int
		memo       bool
	}{
		{"dense-8x8", 8, 8, nil, false},
		{"dense-32x32", 32, 32, nil, false},
		{"dense-64x32", 64, 32, nil, false},
		{"feature-sparse-32x145", 32, 145, sparse, false},
		{"feature-sparse-32x145-memo", 32, 145, sparse, true},
	}
	for _, c := range cases {
		m := NewMat(c.rows, c.cols)
		r.FillNormal(m.Data, 0, 1)
		if c.memo {
			m.Fin = new(Finite)
		}
		x := NewVec(c.cols)
		if c.nonzero == nil {
			r.FillNormal(x, 0, 1)
		}
		for _, j := range c.nonzero {
			x[j] = 1
		}
		out := NewVec(c.rows)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				m.MatVec(x, out)
			}
		})
	}
}
