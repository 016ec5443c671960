package ml

import (
	"math"
	"testing"
)

func TestMLPFitsLinearFunction(t *testing.T) {
	X, y := syntheticLinear(120, 3, 21, 0)
	m := NewMLP()
	m.Seed = 1
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(y, PredictBatch(m, X)); r2 < 0.98 {
		t.Fatalf("MLP linear train R2 = %v", r2)
	}
}

func TestMLPFitsNonlinearFunction(t *testing.T) {
	X, y := syntheticFriedman(300, 22)
	trX, trY, teX, teY, err := TrainTestSplit(X, y, 0.2, 5)
	if err != nil {
		t.Fatal(err)
	}
	m := NewMLP()
	m.Seed = 2
	m.Epochs = 600
	if err := m.Fit(trX, trY); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(teY, PredictBatch(m, teX)); r2 < 0.85 {
		t.Fatalf("MLP test R2 = %v", r2)
	}
}

func TestMLPDeeperNetwork(t *testing.T) {
	X, y := syntheticFriedman(150, 23)
	m := &MLP{Hidden: []int{16, 16}, Epochs: 400, LearningRate: 0.01, Seed: 3}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(y, PredictBatch(m, X)); r2 < 0.9 {
		t.Fatalf("two-layer MLP train R2 = %v", r2)
	}
}

func TestMLPMiniBatch(t *testing.T) {
	X, y := syntheticLinear(100, 2, 24, 0.01)
	m := NewMLP()
	m.BatchSize = 16
	m.Seed = 4
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if r2 := R2(y, PredictBatch(m, X)); r2 < 0.95 {
		t.Fatalf("mini-batch MLP R2 = %v", r2)
	}
}

func TestMLPDeterministicWithSeed(t *testing.T) {
	X, y := syntheticLinear(50, 2, 25, 0)
	a := NewMLP()
	a.Seed = 7
	b := NewMLP()
	b.Seed = 7
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		if a.Predict(X[i]) != b.Predict(X[i]) {
			t.Fatal("same-seed MLPs must agree")
		}
	}
}

func TestMLPValidation(t *testing.T) {
	m := NewMLP()
	if err := m.Fit(nil, nil); err == nil {
		t.Fatal("expected error for empty input")
	}
	bad := &MLP{Hidden: []int{-1}}
	if err := bad.Fit([][]float64{{1}}, []float64{1}); err == nil {
		t.Fatal("expected error for negative hidden width")
	}
	mustPanicML(t, func() { NewMLP().Predict([]float64{1}) })
	if err := m.Fit([][]float64{{1}, {2}}, []float64{1, 2}); err != nil {
		t.Fatal(err)
	}
	mustPanicML(t, func() { m.Predict([]float64{1, 2}) })
	if m.Name() != "MLP" {
		t.Fatal("name wrong")
	}
}

func TestPermutationImportanceFindsSignal(t *testing.T) {
	// y depends only on feature 0; features 1 and 2 are noise.
	X, y := syntheticLinear(200, 1, 28, 0)
	for i := range X {
		X[i] = append(X[i], float64(i%7), float64(i%3))
	}
	m := &RandomForest{NumTrees: 50, Seed: 1}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	imps, err := PermutationImportance(m, X, y, []string{"signal", "noiseA", "noiseB"}, 5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if imps[0].Name != "signal" {
		t.Fatalf("top feature = %s, want signal (%+v)", imps[0].Name, imps)
	}
	if imps[0].Importance <= imps[1].Importance {
		t.Fatalf("signal importance not dominant: %+v", imps)
	}
	// Importances are sorted descending.
	for i := 1; i < len(imps); i++ {
		if imps[i].Importance > imps[i-1].Importance {
			t.Fatal("importances not sorted")
		}
	}
}

func TestPermutationImportanceValidation(t *testing.T) {
	X, y := syntheticLinear(20, 2, 29, 0)
	m := &LinearRegression{}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if _, err := PermutationImportance(m, nil, nil, nil, 3, 1); err == nil {
		t.Fatal("expected error for empty data")
	}
	if _, err := PermutationImportance(m, X, y, []string{"only-one"}, 3, 1); err == nil {
		t.Fatal("expected error for name mismatch")
	}
	// Default names.
	imps, err := PermutationImportance(m, X, y, nil, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(imps) != 2 {
		t.Fatalf("importances = %d", len(imps))
	}
	if imps[0].Name != "f0" && imps[0].Name != "f1" {
		t.Fatalf("default name = %q", imps[0].Name)
	}
}

func TestPermutationImportanceDoesNotMutateX(t *testing.T) {
	X, y := syntheticLinear(30, 2, 30, 0)
	orig := make([][]float64, len(X))
	for i := range X {
		orig[i] = append([]float64(nil), X[i]...)
	}
	m := &LinearRegression{}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if _, err := PermutationImportance(m, X, y, nil, 3, 1); err != nil {
		t.Fatal(err)
	}
	for i := range X {
		for j := range X[i] {
			if X[i][j] != orig[i][j] {
				t.Fatal("PermutationImportance mutated X")
			}
		}
	}
}

func TestMLPVsLinearOnNonlinear(t *testing.T) {
	// Sanity: the MLP must beat linear regression on a clearly nonlinear
	// surface.
	X, y := syntheticFriedman(250, 31)
	lin := &LinearRegression{}
	if err := lin.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	mlp := NewMLP()
	mlp.Seed = 5
	mlp.Epochs = 500
	if err := mlp.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	linMSE := MSE(y, PredictBatch(lin, X))
	mlpMSE := MSE(y, PredictBatch(mlp, X))
	if mlpMSE >= linMSE {
		t.Fatalf("MLP MSE %v should beat linear %v on Friedman surface", mlpMSE, linMSE)
	}
	if math.IsNaN(mlpMSE) {
		t.Fatal("MLP diverged")
	}
}
