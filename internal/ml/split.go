package ml

import (
	"fmt"
	"math/rand"
)

// TrainTestSplit shuffles (X, y) with the given seed and splits off
// testFrac of the samples as a test set, mirroring scikit-learn's
// train_test_split used by the paper (80/20).
func TrainTestSplit(X [][]float64, y []float64, testFrac float64, seed int64) (trainX [][]float64, trainY []float64, testX [][]float64, testY []float64, err error) {
	if _, err = checkXY(X, y); err != nil {
		return nil, nil, nil, nil, err
	}
	if testFrac <= 0 || testFrac >= 1 {
		return nil, nil, nil, nil, fmt.Errorf("%w: testFrac %v must be in (0,1)", ErrBadInput, testFrac)
	}
	n := len(X)
	idx := rand.New(rand.NewSource(seed)).Perm(n)
	nTest := int(float64(n) * testFrac)
	if nTest == 0 {
		nTest = 1
	}
	if nTest >= n {
		nTest = n - 1
	}
	for k, i := range idx {
		if k < nTest {
			testX = append(testX, X[i])
			testY = append(testY, y[i])
		} else {
			trainX = append(trainX, X[i])
			trainY = append(trainY, y[i])
		}
	}
	return trainX, trainY, testX, testY, nil
}

// Gather selects the rows of X and elements of y at the given indices.
func Gather(X [][]float64, y []float64, idx []int) ([][]float64, []float64) {
	gx := make([][]float64, len(idx))
	gy := make([]float64, len(idx))
	for k, i := range idx {
		gx[k] = X[i]
		gy[k] = y[i]
	}
	return gx, gy
}

// MeanEvaluation averages a slice of evaluations.
func MeanEvaluation(evals []Evaluation) Evaluation {
	var out Evaluation
	if len(evals) == 0 {
		return out
	}
	for _, e := range evals {
		out.MSE += e.MSE
		out.RMSE += e.RMSE
		out.MAE += e.MAE
		out.R2 += e.R2
	}
	n := float64(len(evals))
	out.MSE /= n
	out.RMSE /= n
	out.MAE /= n
	out.R2 /= n
	return out
}
