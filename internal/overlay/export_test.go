package overlay

// LinkFailed reports whether the link between a and b is currently failed
// (false if the link does not exist).
func (n *Network) LinkFailed(a, b string) bool {
	l, ok := n.links[linkKey(a, b)]
	return ok && l.failed
}

// Latency returns the end-to-end latency of the best live route between two
// nodes, or +Inf when unreachable.
func (n *Network) Latency(from, to string) float64 { return n.table().latency(from, to) }
