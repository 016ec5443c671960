package ml

import (
	"math/rand"
	"testing"
)

func syntheticLinear(n, d int, seed int64, noise float64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, d)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, d)
		for j := range X[i] {
			X[i][j] = rng.Float64()
		}
		y[i] = 0.5
		for j := range w {
			y[i] += w[j] * X[i][j]
		}
		y[i] += noise * rng.NormFloat64()
	}
	return X, y
}

func TestTrainTestSplitSizes(t *testing.T) {
	X, y := syntheticLinear(100, 3, 1, 0)
	trX, trY, teX, teY, err := TrainTestSplit(X, y, 0.2, 42)
	if err != nil {
		t.Fatal(err)
	}
	if len(teX) != 20 || len(teY) != 20 || len(trX) != 80 || len(trY) != 80 {
		t.Fatalf("sizes = %d/%d train, %d/%d test", len(trX), len(trY), len(teX), len(teY))
	}
}

func TestTrainTestSplitDisjointAndComplete(t *testing.T) {
	n := 50
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{float64(i)}
		y[i] = float64(i)
	}
	trX, _, teX, _, err := TrainTestSplit(X, y, 0.3, 7)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[float64]int{}
	for _, r := range trX {
		seen[r[0]]++
	}
	for _, r := range teX {
		seen[r[0]]++
	}
	if len(seen) != n {
		t.Fatalf("split lost rows: %d unique of %d", len(seen), n)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("row %v appears %d times", v, c)
		}
	}
}

func TestTrainTestSplitDeterministic(t *testing.T) {
	X, y := syntheticLinear(40, 2, 3, 0)
	_, _, te1, _, _ := TrainTestSplit(X, y, 0.25, 99)
	_, _, te2, _, _ := TrainTestSplit(X, y, 0.25, 99)
	for i := range te1 {
		if te1[i][0] != te2[i][0] {
			t.Fatal("same seed must give same split")
		}
	}
}

func TestTrainTestSplitErrors(t *testing.T) {
	X, y := syntheticLinear(10, 2, 1, 0)
	if _, _, _, _, err := TrainTestSplit(X, y, 0, 1); err == nil {
		t.Fatal("expected error for frac=0")
	}
	if _, _, _, _, err := TrainTestSplit(X, y, 1, 1); err == nil {
		t.Fatal("expected error for frac=1")
	}
	if _, _, _, _, err := TrainTestSplit(nil, nil, 0.5, 1); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, _, _, _, err := TrainTestSplit(X, y[:5], 0.5, 1); err == nil {
		t.Fatal("expected error for length mismatch")
	}
}

func TestTrainTestSplitExtremeFractions(t *testing.T) {
	X, y := syntheticLinear(10, 2, 1, 0)
	_, _, teX, _, err := TrainTestSplit(X, y, 0.01, 1)
	if err != nil || len(teX) != 1 {
		t.Fatalf("tiny frac: test size %d, err %v", len(teX), err)
	}
	trX, _, _, _, err := TrainTestSplit(X, y, 0.99, 1)
	if err != nil || len(trX) < 1 {
		t.Fatalf("huge frac: train size %d, err %v", len(trX), err)
	}
}

func TestGather(t *testing.T) {
	X := [][]float64{{1}, {2}, {3}}
	y := []float64{10, 20, 30}
	gx, gy := Gather(X, y, []int{2, 0})
	if gx[0][0] != 3 || gx[1][0] != 1 || gy[0] != 30 || gy[1] != 10 {
		t.Fatalf("Gather = %v %v", gx, gy)
	}
}

func TestMeanEvaluationEmpty(t *testing.T) {
	e := MeanEvaluation(nil)
	if e.MSE != 0 || e.R2 != 0 {
		t.Fatalf("empty mean = %+v", e)
	}
}
