package ml

// Leaves returns the number of leaves in the fitted tree (0 when unfitted).
func (t *REPTree) Leaves() int {
	var count func(*treeNode) int
	count = func(n *treeNode) int {
		if n == nil {
			return 0
		}
		if n.isLeaf() {
			return 1
		}
		return count(n.left) + count(n.right)
	}
	return count(t.root)
}

// Depth returns the depth of the fitted tree (0 for a single leaf, -1 when
// unfitted).
func (t *REPTree) Depth() int {
	var depth func(*treeNode) int
	depth = func(n *treeNode) int {
		if n == nil {
			return -1
		}
		if n.isLeaf() {
			return 0
		}
		return 1 + max(depth(n.left), depth(n.right))
	}
	return depth(t.root)
}

// Leaves returns the number of leaves in the fitted model tree (0 when
// unfitted).
func (t *M5P) Leaves() int {
	var count func(*m5Node) int
	count = func(n *m5Node) int {
		if n == nil {
			return 0
		}
		if n.isLeaf() {
			return 1
		}
		return count(n.left) + count(n.right)
	}
	return count(t.root)
}
