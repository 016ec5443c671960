package ml

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"
)

// The golden tests pin the exact bytes SaveModel writes for the surrogates
// Table I trains (plus a lone CART tree), and the exact predictions of the
// paths those digests do not reach. They were captured before the SVR and
// CART inner loops were rewritten; any change to a fitted bit fails them.
// A digest changes only when a model's arithmetic is changed on purpose,
// and then CHANGES.md says why.

// hashFloats returns the hex sha256 of the IEEE-754 bit patterns of xs.
func hashFloats(xs []float64) string {
	h := sha256.New()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(x))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// savedDigest fits m on syntheticFriedman(300, 77) and returns the hex
// sha256 of its SaveModel bytes.
func savedDigest(t *testing.T, m Regressor) string {
	t.Helper()
	X, y := syntheticFriedman(300, 77)
	if err := m.Fit(X, y); err != nil {
		t.Fatalf("%T: %v", m, err)
	}
	var buf bytes.Buffer
	if err := SaveModel(&buf, m); err != nil {
		t.Fatalf("%T: %v", m, err)
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:])
}

func TestSaveModelGoldenBytes(t *testing.T) {
	svr := NewSVR()
	svr.Seed = 1
	gb := NewGradientBoosting()
	gb.Seed = 1
	cases := []struct {
		name  string
		model Regressor
		want  string
	}{
		{"SVR", svr, "db5dbe40414643299ca6bfc9eb74bd2dfc4823fd2c545adca0203f70de967f80"},
		{"RF", &RandomForest{NumTrees: 100, Seed: 1}, "5dd320fd6efd3c881908d9532e2d931e23e87bd7a805c15aa12311b6e8e09ece"},
		{"GB", gb, "1d599ee337d11395f570ff0884d7e4b8f22d67d2aaaf39062c992c24b240737c"},
		{"Tree", &RegressionTree{}, "e63e8e954b3a8afab18be2245eaecd30a2e3a80742964d423973039e7f769dec"},
	}
	for _, c := range cases {
		if got := savedDigest(t, c.model); got != c.want {
			t.Errorf("%s: SaveModel sha256 = %s, want %s", c.name, got, c.want)
		}
	}
	// Iters is not persisted; pin it so an early or late stop shows too.
	if svr.Iters != 400 {
		t.Errorf("SVR Iters = %d, want %d", svr.Iters, 400)
	}
}

// TestForestFeatureSubsetGolden pins a forest that samples 3 of 10
// features per split, the only path through the feature-subset shuffle.
func TestForestFeatureSubsetGolden(t *testing.T) {
	X, y := syntheticLinear(200, 10, 3, 0.1)
	rf := &RandomForest{NumTrees: 20, MaxFeatures: 3, Seed: 5}
	if err := rf.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	const want = "b561782e1affb3083d1aa726c0adb44fb66a0f1d08f9dc483185fbed7e02fa98"
	if got := hashFloats(PredictBatch(rf, X)); got != want {
		t.Fatalf("predictions sha256 = %s, want %s", got, want)
	}
}

// TestRefitMatchesFreshFit fits the same RegressionTree and SVR values twice
// on different data: the second fit must equal a fresh model's bit for bit,
// so no scratch state carries over from one Fit to the next.
func TestRefitMatchesFreshFit(t *testing.T) {
	X1, y1 := syntheticFriedman(150, 3)
	X2, y2 := syntheticFriedman(180, 4)
	fits := []struct {
		name string
		mk   func() Regressor
	}{
		{"Tree", func() Regressor { return &RegressionTree{MaxFeatures: 2, Seed: 9} }},
		// An explicit kernel: a defaulted RBF keeps the first fit's gamma.
		{"SVR", func() Regressor {
			s := NewSVR()
			s.Seed = 2
			s.Kernel = RBFKernel{Gamma: 1.5}
			return s
		}},
	}
	for _, f := range fits {
		reused := f.mk()
		if err := reused.Fit(X1, y1); err != nil {
			t.Fatal(err)
		}
		if err := reused.Fit(X2, y2); err != nil {
			t.Fatal(err)
		}
		fresh := f.mk()
		if err := fresh.Fit(X2, y2); err != nil {
			t.Fatal(err)
		}
		a, b := PredictBatch(reused, X1), PredictBatch(fresh, X1)
		if hashFloats(a) != hashFloats(b) {
			t.Errorf("%s: refit predictions differ from a fresh fit", f.name)
		}
	}
}
