package ml

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// REPTree is a regression tree grown with variance reduction and pruned by
// reduced-error pruning on a held-out portion of the training data — the
// model the paper's evaluation selects for RTTF prediction (per the authors'
// prior F2PM results).
type REPTree struct {
	// MaxDepth bounds the depth of the grown tree (<=0 means the default 12).
	MaxDepth int
	// MinLeaf is the minimum number of samples in a leaf (<=0 means 5).
	MinLeaf int
	// PruneFraction is the fraction of training data held out for
	// reduced-error pruning (defaults to 0.25; 0 disables pruning).
	PruneFraction float64

	root *treeNode
}

// treeNode is one node of a regression tree.  Leaves have left==right==nil.
type treeNode struct {
	feature   int
	threshold float64
	left      *treeNode
	right     *treeNode
	value     float64 // prediction when used as a leaf
	samples   int
}

func (n *treeNode) isLeaf() bool { return n.left == nil && n.right == nil }

// NewREPTree returns a REP-Tree with default hyper-parameters.
func NewREPTree() *REPTree {
	return &REPTree{MaxDepth: 12, MinLeaf: 5, PruneFraction: 0.25}
}

// Name implements Regressor.
func (t *REPTree) Name() string { return "REPTree" }

// Fit implements Regressor.
func (t *REPTree) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 {
		return ErrEmptyDataset
	}
	if len(x) != len(y) {
		return ErrDimensionMismatch
	}
	maxDepth := t.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 12
	}
	minLeaf := t.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 5
	}
	pruneFrac := t.PruneFraction
	if pruneFrac < 0 || pruneFrac >= 0.9 {
		pruneFrac = 0.25
	}

	// Deterministic grow/prune split: every 1/pruneFrac-th sample goes to the
	// pruning set.  This interleaving keeps both sets representative of the
	// whole degradation trajectory without requiring a random source.
	var growX, pruneX [][]float64
	var growY, pruneY []float64
	if pruneFrac > 0 && len(x) >= 4*minLeaf {
		stride := int(math.Round(1 / pruneFrac))
		if stride < 2 {
			stride = 2
		}
		for i := range x {
			if i%stride == stride-1 {
				pruneX = append(pruneX, x[i])
				pruneY = append(pruneY, y[i])
			} else {
				growX = append(growX, x[i])
				growY = append(growY, y[i])
			}
		}
	} else {
		growX, growY = x, y
	}

	idx := make([]int, len(growX))
	for i := range idx {
		idx[i] = i
	}
	t.root = growTree(growX, growY, idx, maxDepth, minLeaf)
	if len(pruneX) > 0 {
		pruneTree(t.root, pruneX, pruneY)
	}
	return nil
}

// growTree recursively builds a variance-reduction regression tree over the
// sample subset identified by idx.
func growTree(x [][]float64, y []float64, idx []int, depth, minLeaf int) *treeNode {
	node := &treeNode{value: meanAt(y, idx), samples: len(idx)}
	if depth <= 0 || len(idx) < 2*minLeaf {
		return node
	}
	feature, threshold, gain := bestSplit(x, y, idx, minLeaf)
	if gain <= 1e-12 {
		return node
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if x[i][feature] <= threshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) < minLeaf || len(rightIdx) < minLeaf {
		return node
	}
	node.feature = feature
	node.threshold = threshold
	node.left = growTree(x, y, leftIdx, depth-1, minLeaf)
	node.right = growTree(x, y, rightIdx, depth-1, minLeaf)
	return node
}

// bestSplit finds the (feature, threshold) pair maximising variance reduction.
func bestSplit(x [][]float64, y []float64, idx []int, minLeaf int) (feature int, threshold, gain float64) {
	feature = -1
	parentVar := varianceAt(y, idx) * float64(len(idx))
	if parentVar <= 0 {
		return -1, 0, 0
	}
	p := len(x[idx[0]])
	sorted := make([]int, len(idx))
	for f := 0; f < p; f++ {
		copy(sorted, idx)
		sort.Slice(sorted, func(a, b int) bool { return x[sorted[a]][f] < x[sorted[b]][f] })

		// Prefix sums for O(n) split evaluation per feature.
		n := len(sorted)
		prefixSum := make([]float64, n+1)
		prefixSq := make([]float64, n+1)
		for i, id := range sorted {
			prefixSum[i+1] = prefixSum[i] + y[id]
			prefixSq[i+1] = prefixSq[i] + y[id]*y[id]
		}
		total := prefixSum[n]
		totalSq := prefixSq[n]
		for i := minLeaf; i <= n-minLeaf; i++ {
			// Skip splits between equal feature values.
			if x[sorted[i-1]][f] == x[sorted[i]][f] {
				continue
			}
			nl := float64(i)
			nr := float64(n - i)
			sl := prefixSum[i]
			sr := total - sl
			sql := prefixSq[i]
			sqr := totalSq - sql
			ssl := sql - sl*sl/nl
			ssr := sqr - sr*sr/nr
			g := parentVar - (ssl + ssr)
			if g > gain {
				gain = g
				feature = f
				threshold = (x[sorted[i-1]][f] + x[sorted[i]][f]) / 2
			}
		}
	}
	return feature, threshold, gain
}

// pruneTree applies reduced-error pruning: an internal node is collapsed to a
// leaf whenever the leaf's error on the pruning set is no worse than the
// subtree's.
func pruneTree(node *treeNode, px [][]float64, py []float64) float64 {
	if node == nil || len(px) == 0 {
		return 0
	}
	if node.isLeaf() {
		return sqErrAgainst(node.value, py)
	}
	var lx, rx [][]float64
	var ly, ry []float64
	for i, row := range px {
		if row[node.feature] <= node.threshold {
			lx = append(lx, row)
			ly = append(ly, py[i])
		} else {
			rx = append(rx, row)
			ry = append(ry, py[i])
		}
	}
	subtreeErr := pruneTree(node.left, lx, ly) + pruneTree(node.right, rx, ry)
	leafErr := sqErrAgainst(node.value, py)
	if leafErr <= subtreeErr {
		node.left = nil
		node.right = nil
		return leafErr
	}
	return subtreeErr
}

func sqErrAgainst(pred float64, ys []float64) float64 {
	s := 0.0
	for _, y := range ys {
		d := y - pred
		s += d * d
	}
	return s
}

func meanAt(y []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += y[i]
	}
	return s / float64(len(idx))
}

func varianceAt(y []float64, idx []int) float64 {
	if len(idx) < 2 {
		return 0
	}
	m := meanAt(y, idx)
	s := 0.0
	for _, i := range idx {
		d := y[i] - m
		s += d * d
	}
	return s / float64(len(idx))
}

// Predict implements Regressor.
func (t *REPTree) Predict(row []float64) float64 {
	node := t.root
	if node == nil {
		return 0
	}
	for !node.isLeaf() {
		if node.feature < len(row) && row[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	return node.value
}

// String renders the tree structure for debugging.
func (t *REPTree) String() string {
	if t.root == nil {
		return "REPTree(unfitted)"
	}
	var b strings.Builder
	dumpNode(&b, t.root, 0)
	return b.String()
}

func dumpNode(b *strings.Builder, n *treeNode, depth int) {
	indent := strings.Repeat("  ", depth)
	if n.isLeaf() {
		fmt.Fprintf(b, "%sleaf value=%.3f n=%d\n", indent, n.value, n.samples)
		return
	}
	fmt.Fprintf(b, "%sx[%d] <= %.3f (n=%d)\n", indent, n.feature, n.threshold, n.samples)
	dumpNode(b, n.left, depth+1)
	dumpNode(b, n.right, depth+1)
}

// M5P is a model tree: the structure is grown like a regression tree but each
// leaf holds a linear model fitted on the samples reaching it, with the leaf
// mean as a fallback when the local regression is degenerate.  This follows
// Wang & Witten's M5' construction in simplified form.
type M5P struct {
	// MaxDepth bounds the tree depth (<=0 means 6).
	MaxDepth int
	// MinLeaf is the minimum number of samples per leaf (<=0 means 12, larger
	// than REPTree because each leaf must support a regression).
	MinLeaf int

	root *m5Node
}

type m5Node struct {
	feature   int
	threshold float64
	left      *m5Node
	right     *m5Node
	model     *RidgeRegression
	mean      float64
	minLabel  float64
	maxLabel  float64
}

func (n *m5Node) isLeaf() bool { return n.left == nil && n.right == nil }

// NewM5P returns an M5P model tree with default hyper-parameters.
func NewM5P() *M5P { return &M5P{MaxDepth: 6, MinLeaf: 12} }

// Name implements Regressor.
func (t *M5P) Name() string { return "M5P" }

// Fit implements Regressor.
func (t *M5P) Fit(x [][]float64, y []float64) error {
	if len(x) == 0 {
		return ErrEmptyDataset
	}
	if len(x) != len(y) {
		return ErrDimensionMismatch
	}
	maxDepth := t.MaxDepth
	if maxDepth <= 0 {
		maxDepth = 6
	}
	minLeaf := t.MinLeaf
	if minLeaf <= 0 {
		minLeaf = 12
	}
	idx := make([]int, len(x))
	for i := range idx {
		idx[i] = i
	}
	t.root = growM5(x, y, idx, maxDepth, minLeaf)
	return nil
}

func growM5(x [][]float64, y []float64, idx []int, depth, minLeaf int) *m5Node {
	node := &m5Node{mean: meanAt(y, idx)}
	node.minLabel, node.maxLabel = labelRangeAt(y, idx)
	fitLeafModel(node, x, y, idx)
	if depth <= 0 || len(idx) < 2*minLeaf {
		return node
	}
	feature, threshold, gain := bestSplit(x, y, idx, minLeaf)
	if gain <= 1e-12 {
		return node
	}
	var leftIdx, rightIdx []int
	for _, i := range idx {
		if x[i][feature] <= threshold {
			leftIdx = append(leftIdx, i)
		} else {
			rightIdx = append(rightIdx, i)
		}
	}
	if len(leftIdx) < minLeaf || len(rightIdx) < minLeaf {
		return node
	}
	node.feature = feature
	node.threshold = threshold
	node.left = growM5(x, y, leftIdx, depth-1, minLeaf)
	node.right = growM5(x, y, rightIdx, depth-1, minLeaf)
	return node
}

// labelRangeAt returns the min and max label among the indexed samples.
func labelRangeAt(y []float64, idx []int) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, i := range idx {
		if y[i] < lo {
			lo = y[i]
		}
		if y[i] > hi {
			hi = y[i]
		}
	}
	return lo, hi
}

// fitLeafModel attaches a linear model to the node when the local sample
// supports one; otherwise the node falls back to the mean.  The model is a
// lightly regularised ridge regression rather than plain OLS: leaves hold few
// samples relative to the feature count, and an unregularised local fit
// extrapolates wildly on held-out data (the original M5 algorithm prunes
// attributes per leaf for the same reason).
func fitLeafModel(node *m5Node, x [][]float64, y []float64, idx []int) {
	if len(idx) == 0 {
		return
	}
	p := len(x[idx[0]])
	if len(idx) < p+2 {
		return // not enough samples for a stable regression
	}
	lx := make([][]float64, len(idx))
	ly := make([]float64, len(idx))
	for i, id := range idx {
		lx[i] = x[id]
		ly[i] = y[id]
	}
	lm := NewRidgeRegression(1.0)
	if err := lm.Fit(lx, ly); err == nil {
		node.model = lm
	}
}

// Predict implements Regressor.  Leaf-model predictions are clamped to the
// label range observed at the leaf, which keeps the model tree from
// extrapolating far outside the data it was grown on.
func (t *M5P) Predict(row []float64) float64 {
	node := t.root
	if node == nil {
		return 0
	}
	for !node.isLeaf() {
		if node.feature < len(row) && row[node.feature] <= node.threshold {
			node = node.left
		} else {
			node = node.right
		}
	}
	pred := node.mean
	if node.model != nil {
		pred = node.model.Predict(row)
	}
	if math.IsNaN(pred) || math.IsInf(pred, 0) {
		return node.mean
	}
	if pred < node.minLabel {
		pred = node.minLabel
	}
	if pred > node.maxLabel {
		pred = node.maxLabel
	}
	return pred
}
