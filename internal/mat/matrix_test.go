package mat

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDenseZero(t *testing.T) {
	m := NewDense(3, 4, nil)
	r, c := m.Dims()
	if r != 3 || c != 4 {
		t.Fatalf("Dims = %d,%d, want 3,4", r, c)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestNewDenseData(t *testing.T) {
	m := NewDense(2, 2, []float64{1, 2, 3, 4})
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected layout: %v", m)
	}
}

func TestNewDensePanics(t *testing.T) {
	mustPanic(t, func() { NewDense(0, 2, nil) })
	mustPanic(t, func() { NewDense(2, 2, []float64{1}) })
}

func TestSetAt(t *testing.T) {
	m := NewDense(2, 3, nil)
	m.Set(1, 2, 7.5)
	if got := m.At(1, 2); got != 7.5 {
		t.Fatalf("At = %v, want 7.5", got)
	}
}

func TestAtOutOfBoundsPanics(t *testing.T) {
	m := NewDense(2, 2, nil)
	mustPanic(t, func() { m.At(2, 0) })
	mustPanic(t, func() { m.At(0, -1) })
	mustPanic(t, func() { m.Set(-1, 0, 1) })
}

func TestRowColCopySemantics(t *testing.T) {
	m := NewDense(2, 2, []float64{1, 2, 3, 4})
	r := m.Row(0)
	r[0] = 99
	if m.At(0, 0) != 1 {
		t.Fatal("Row must return a copy")
	}
	c := m.Col(1)
	c[0] = 99
	if m.At(0, 1) != 2 {
		t.Fatal("Col must return a copy")
	}
	if got := m.Col(1); got[0] != 2 || got[1] != 4 {
		t.Fatalf("Col(1) = %v, want [2 4]", got)
	}
}

func TestRawRowAliases(t *testing.T) {
	m := NewDense(2, 2, []float64{1, 2, 3, 4})
	m.RawRow(1)[0] = 42
	if m.At(1, 0) != 42 {
		t.Fatal("RawRow must alias storage")
	}
}

func TestTranspose(t *testing.T) {
	m := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	tr := m.T()
	r, c := tr.Dims()
	if r != 3 || c != 2 {
		t.Fatalf("T dims = %d,%d", r, c)
	}
	if tr.At(2, 1) != 6 || tr.At(0, 1) != 4 {
		t.Fatalf("T wrong: %v", tr)
	}
}

func TestMul(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	b := NewDense(3, 2, []float64{7, 8, 9, 10, 11, 12})
	got, err := Mul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := NewDense(2, 2, []float64{58, 64, 139, 154})
	if !Equal(got, want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", got, want)
	}
}

func TestMulShapeError(t *testing.T) {
	a := NewDense(2, 3, nil)
	if _, err := Mul(a, a); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := NewDense(4, 4, nil)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			a.Set(i, j, rng.NormFloat64())
		}
	}
	got, err := Mul(a, identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(got, a, 1e-12) {
		t.Fatal("A*I != A")
	}
}

func TestMulVec(t *testing.T) {
	a := NewDense(2, 3, []float64{1, 2, 3, 4, 5, 6})
	got, err := MulVec(a, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != 6 || got[1] != 15 {
		t.Fatalf("MulVec = %v", got)
	}
	if _, err := MulVec(a, []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestAddSubScale(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 3, 4})
	b := NewDense(2, 2, []float64{4, 3, 2, 1})
	s, err := Add(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := NewDense(2, 2, []float64{5, 5, 5, 5})
	if !Equal(s, want, 0) {
		t.Fatalf("Add = %v", s)
	}
	d, err := Sub(s, b)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(d, a, 0) {
		t.Fatalf("Sub = %v", d)
	}
	a.Clone().Scale(2)
	if a.At(0, 0) != 1 {
		t.Fatal("Scale of clone must not touch original")
	}
	if got := a.Clone().Scale(2).At(1, 1); got != 8 {
		t.Fatalf("Scale = %v, want 8", got)
	}
	c := NewDense(1, 2, nil)
	if _, err := Add(a, c); err == nil {
		t.Fatal("expected shape error")
	}
	if _, err := Sub(a, c); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestAddDiag(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 3, 4})
	a.AddDiag(10)
	if a.At(0, 0) != 11 || a.At(1, 1) != 14 || a.At(0, 1) != 2 {
		t.Fatalf("AddDiag wrong: %v", a)
	}
}

func TestDotNormSqDist(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v", got)
	}
	if got := Norm2([]float64{3, 4}); got != 5 {
		t.Fatalf("Norm2 = %v", got)
	}
	if got := SqDist([]float64{1, 1}, []float64{4, 5}); got != 25 {
		t.Fatalf("SqDist = %v", got)
	}
	mustPanic(t, func() { Dot([]float64{1}, []float64{1, 2}) })
	mustPanic(t, func() { SqDist([]float64{1}, []float64{1, 2}) })
}

func TestAXPY(t *testing.T) {
	y := []float64{1, 2}
	AXPY(2, []float64{10, 20}, y)
	if y[0] != 21 || y[1] != 42 {
		t.Fatalf("AXPY = %v", y)
	}
	mustPanic(t, func() { AXPY(1, []float64{1}, []float64{1, 2}) })
}

func TestEqualShapeMismatch(t *testing.T) {
	if Equal(NewDense(1, 2, nil), NewDense(2, 1, nil), 1) {
		t.Fatal("Equal must reject shape mismatch")
	}
}

// Property: (AB)ᵀ = BᵀAᵀ for random matrices.
func TestPropTransposeOfProduct(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(6), 1+rng.Intn(6), 1+rng.Intn(6)
		a, b := randomDense(rng, m, k), randomDense(rng, k, n)
		ab, _ := Mul(a, b)
		btat, _ := Mul(b.T(), a.T())
		return Equal(ab.T(), btat, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: Dot is symmetric and Norm2 is non-negative.
func TestPropDotSymmetry(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(16)
		a, b := randomVec(rng, n), randomVec(rng, n)
		return math.Abs(Dot(a, b)-Dot(b, a)) < 1e-12 && Norm2(a) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func randomDense(rng *rand.Rand, r, c int) *Dense {
	m := NewDense(r, c, nil)
	for i := 0; i < r; i++ {
		for j := 0; j < c; j++ {
			m.Set(i, j, rng.NormFloat64())
		}
	}
	return m
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func mustPanic(t *testing.T, f func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	f()
}

// identity returns the n-by-n identity matrix.
func identity(n int) *Dense {
	m := NewDense(n, n, nil)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}
