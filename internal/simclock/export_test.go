package simclock

import (
	"math"
	"sort"
)

// PrefixSums exposes a prepared table's prefix sums to the external tests.
func (w Weights) PrefixSums() []float64 { return w.cum }

// GuideLen returns the length of the table's guide (0 without one).
func (w Weights) GuideLen() int { return len(w.guide) }

// PickAt is Pick for the uniform u, a Float64 output: it starts the scan at
// u's guide bucket.
func (w Weights) PickAt(u float64) int { return w.pickAt(u) }

// PickLinear is PickAt without the guide: the scan from index 0.
func (w Weights) PickLinear(u float64) int { return w.scan(0, u*w.cum[len(w.cum)-1]) }

// PendingTimes returns the timestamps of all pending events in ascending
// order.
func (e *Engine) PendingTimes() []Time {
	e.settle()
	var out []Time
	for _, en := range e.queue {
		out = append(out, en.at())
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Pareto returns a Pareto-distributed value with scale xm and shape alpha.
func (r *RNG) Pareto(xm, alpha float64) float64 {
	if xm <= 0 || alpha <= 0 {
		return 0
	}
	u := r.Float64()
	for u == 0 {
		u = r.Float64()
	}
	return xm / math.Pow(u, 1/alpha)
}

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.Shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

// Shuffle randomises the order of n elements using the provided swap
// function, mirroring math/rand.Shuffle.
func (r *RNG) Shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.Intn(i+1))
	}
}
