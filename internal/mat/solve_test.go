package mat

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func spdMatrix(rng *rand.Rand, n int) *Dense {
	// A = BᵀB + n*I is symmetric positive definite.
	b := randomDense(rng, n, n)
	a, _ := Mul(b.T(), b)
	return a.AddDiag(float64(n))
}

func TestCholeskyReconstructs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for n := 1; n <= 8; n++ {
		a := spdMatrix(rng, n)
		l, err := Cholesky(a)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		llt, _ := Mul(l, l.T())
		if !Equal(llt, a, 1e-8) {
			t.Fatalf("n=%d: LLᵀ != A", n)
		}
	}
}

func TestCholeskyRejectsNonSquare(t *testing.T) {
	if _, err := Cholesky(NewDense(2, 3, nil)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestCholeskyRejectsIndefinite(t *testing.T) {
	a := NewDense(2, 2, []float64{1, 2, 2, 1}) // eigenvalues 3, -1
	if _, err := Cholesky(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestCholeskySolve(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	a := spdMatrix(rng, 5)
	want := randomVec(rng, 5)
	b, _ := MulVec(a, want)
	x, err := SolveSPD(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-8 {
			t.Fatalf("x[%d] = %v, want %v", i, x[i], want[i])
		}
	}
}

func TestCholeskySolveShapeError(t *testing.T) {
	l, err := Cholesky(identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CholeskySolve(l, []float64{1}); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestQRSolveExact(t *testing.T) {
	// Square well-conditioned system.
	a := NewDense(3, 3, []float64{4, 1, 0, 1, 3, 1, 0, 1, 2})
	want := []float64{1, -2, 3}
	b, _ := MulVec(a, want)
	x, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if math.Abs(x[i]-want[i]) > 1e-9 {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestQRLeastSquaresOverdetermined(t *testing.T) {
	// Fit y = 2x + 1 through noisy-free samples: exact recovery expected.
	n := 20
	a := NewDense(n, 2, nil)
	b := make([]float64, n)
	for i := 0; i < n; i++ {
		x := float64(i)
		a.Set(i, 0, x)
		a.Set(i, 1, 1)
		b[i] = 2*x + 1
	}
	coef, err := LeastSquares(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(coef[0]-2) > 1e-9 || math.Abs(coef[1]-1) > 1e-9 {
		t.Fatalf("coef = %v, want [2 1]", coef)
	}
}

func TestQRRejectsUnderdetermined(t *testing.T) {
	if _, err := QRFactor(NewDense(2, 3, nil)); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestQRRejectsZeroColumn(t *testing.T) {
	a := NewDense(3, 2, []float64{1, 0, 2, 0, 3, 0})
	if _, err := QRFactor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestQRSolveShapeError(t *testing.T) {
	f, err := QRFactor(identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]float64{1, 2}); err == nil {
		t.Fatal("expected shape error")
	}
}

// Property: least-squares residual is orthogonal to the column space.
func TestPropLeastSquaresResidualOrthogonal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, n := 6+rng.Intn(10), 2+rng.Intn(3)
		a := randomDense(rng, m, n)
		b := randomVec(rng, m)
		x, err := LeastSquares(a, b)
		if err != nil {
			return true // singular draw: skip
		}
		ax, _ := MulVec(a, x)
		r := make([]float64, m)
		for i := range r {
			r[i] = b[i] - ax[i]
		}
		// Aᵀ r should be ~0.
		atr, _ := MulVec(a.T(), r)
		for _, v := range atr {
			if math.Abs(v) > 1e-7 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: SolveSPD inverts MulVec for SPD systems.
func TestPropSPDRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		a := spdMatrix(rng, n)
		want := randomVec(rng, n)
		b, _ := MulVec(a, want)
		x, err := SolveSPD(a, b)
		if err != nil {
			return false
		}
		for i := range x {
			if math.Abs(x[i]-want[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
