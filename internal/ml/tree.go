package ml

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
)

// RegressionTree is a CART regression tree grown by greedy variance
// reduction. It is the weak learner for both the random forest and the
// gradient-boosting ensembles.
type RegressionTree struct {
	// MaxDepth limits tree depth (root at depth 0); <=0 means unlimited.
	MaxDepth int
	// MinSamplesSplit is the smallest node size eligible for splitting.
	MinSamplesSplit int
	// MinSamplesLeaf is the smallest allowed leaf size.
	MinSamplesLeaf int
	// MaxFeatures limits the number of features examined per split;
	// <=0 means all features. The forest sets this for decorrelation.
	MaxFeatures int
	// Seed drives the feature-subset sampling.
	Seed int64

	root   *treeNode
	nDims  int
	fitted bool
}

type treeNode struct {
	feature     int // split feature; -1 for leaves
	threshold   float64
	value       float64 // leaf prediction (node mean)
	samples     int
	left, right *treeNode
}

// Name implements Named.
func (t *RegressionTree) Name() string { return "Tree" }

// Fit grows the tree on (X, y).
func (t *RegressionTree) Fit(X [][]float64, y []float64) error {
	d, err := checkXY(X, y)
	if err != nil {
		return err
	}
	if t.MinSamplesSplit < 2 {
		t.MinSamplesSplit = 2
	}
	if t.MinSamplesLeaf < 1 {
		t.MinSamplesLeaf = 1
	}
	t.nDims = d
	n := len(X)
	b := &treeBuilder{
		t:     t,
		X:     X,
		y:     y,
		pairs: make([]splitPair, n),
		feats: make([]int, d),
		right: make([]int, n),
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	t.root = b.grow(idx, 0)
	t.fitted = true
	return nil
}

// treeBuilder is one Fit's working state. Its buffers are sized once and
// reused at every node, so growing a tree allocates only its nodes.
type treeBuilder struct {
	t     *RegressionTree
	X     [][]float64
	y     []float64
	rng   *rand.Rand  // feature-subset sampling, seeded on first use
	pairs []splitPair // one feature's (x, y) values at a node, sorted by x
	feats []int       // feature-subset buffer
	right []int       // right-child rows while idx is partitioned
}

type splitPair struct{ x, y float64 }

// cmpSplitPair orders pairs by x. slices.SortFunc only tests cmp(a, b) < 0,
// which holds exactly when a.x < b.x, so it makes the same moves as
// sort.Slice with that less function: pairs with equal x end in the same
// order, and the split search's running sums depend on that order.
func cmpSplitPair(a, b splitPair) int {
	if a.x < b.x {
		return -1
	}
	if a.x > b.x {
		return 1
	}
	return 0
}

// grow builds the subtree over the rows in idx. On a split it partitions
// idx in place, stably: the left rows keep their order at the front and the
// right rows keep theirs behind them, so each child sums its rows in the
// parent's order.
func (b *treeBuilder) grow(idx []int, depth int) *treeNode {
	t := b.t
	n := len(idx)
	var sum float64
	for _, i := range idx {
		sum += b.y[i]
	}
	node := &treeNode{feature: -1, value: sum / float64(n), samples: n}
	if n < t.MinSamplesSplit || (t.MaxDepth > 0 && depth >= t.MaxDepth) {
		return node
	}
	feat, thr, ok := b.bestSplit(idx)
	if !ok {
		return node
	}
	nl, nr := 0, 0
	for _, i := range idx {
		if b.X[i][feat] <= thr {
			idx[nl] = i
			nl++
		} else {
			b.right[nr] = i
			nr++
		}
	}
	copy(idx[nl:], b.right[:nr])
	if nl < t.MinSamplesLeaf || nr < t.MinSamplesLeaf {
		return node
	}
	node.feature = feat
	node.threshold = thr
	node.left = b.grow(idx[:nl], depth+1)
	node.right = b.grow(idx[nl:], depth+1)
	return node
}

// bestSplit scans (a subset of) features for the threshold minimizing the
// weighted child sum of squared errors, using the running-sums identity
// SSE = Σy² - (Σy)²/n per side.
func (b *treeBuilder) bestSplit(idx []int) (feature int, threshold float64, ok bool) {
	t := b.t
	n := len(idx)
	pairs := b.pairs[:n]
	bestGain := math.Inf(-1)

	var totSum, totSq float64
	for _, i := range idx {
		totSum += b.y[i]
		totSq += b.y[i] * b.y[i]
	}
	parentSSE := totSq - totSum*totSum/float64(n)

	for _, f := range b.featureSubset() {
		for k, i := range idx {
			pairs[k] = splitPair{b.X[i][f], b.y[i]}
		}
		slices.SortFunc(pairs, cmpSplitPair)
		var lSum, lSq float64
		for k := 0; k < n-1; k++ {
			lSum += pairs[k].y
			lSq += pairs[k].y * pairs[k].y
			if pairs[k].x == pairs[k+1].x {
				continue // cannot split between equal values
			}
			nl, nr := float64(k+1), float64(n-k-1)
			if int(nl) < t.MinSamplesLeaf || int(nr) < t.MinSamplesLeaf {
				continue
			}
			rSum := totSum - lSum
			rSq := totSq - lSq
			sse := (lSq - lSum*lSum/nl) + (rSq - rSum*rSum/nr)
			gain := parentSSE - sse
			if gain > bestGain {
				bestGain = gain
				feature = f
				threshold = (pairs[k].x + pairs[k+1].x) / 2
				ok = true
			}
		}
	}
	if bestGain <= 1e-12 {
		return 0, 0, false
	}
	return feature, threshold, ok
}

// featureSubset returns the features one split examines: all of them, or
// MaxFeatures drawn by shuffling the identity permutation.
func (b *treeBuilder) featureSubset() []int {
	all := b.feats
	for i := range all {
		all[i] = i
	}
	if m := b.t.MaxFeatures; m > 0 && m < len(all) {
		if b.rng == nil {
			b.rng = rand.New(rand.NewSource(b.t.Seed + 17))
		}
		b.rng.Shuffle(len(all), func(x, y int) { all[x], all[y] = all[y], all[x] })
		return all[:m]
	}
	return all
}

// Predict descends the tree to a leaf mean.
func (t *RegressionTree) Predict(x []float64) float64 {
	if !t.fitted {
		panic(ErrNotFitted)
	}
	if len(x) != t.nDims {
		panic(fmt.Sprintf("ml: tree expects %d features, got %d", t.nDims, len(x)))
	}
	n := t.root
	for n.feature >= 0 {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n.value
}

// Depth returns the height of the fitted tree (leaf-only tree has depth 0).
func (t *RegressionTree) Depth() int {
	if !t.fitted {
		return 0
	}
	return nodeDepth(t.root)
}

// LeafCount returns the number of leaves in the fitted tree.
func (t *RegressionTree) LeafCount() int {
	if !t.fitted {
		return 0
	}
	return countLeaves(t.root)
}

func nodeDepth(n *treeNode) int {
	if n.feature < 0 {
		return 0
	}
	l, r := nodeDepth(n.left), nodeDepth(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

func countLeaves(n *treeNode) int {
	if n.feature < 0 {
		return 1
	}
	return countLeaves(n.left) + countLeaves(n.right)
}
