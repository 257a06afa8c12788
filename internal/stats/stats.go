// Package stats provides the statistical primitives used across the ACM
// Framework reproduction: descriptive statistics, exponentially weighted
// moving averages (equation 1 of the paper), time series, and the
// convergence/oscillation metrics used to assess the load-balancing policies
// in the evaluation section.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// samples.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += d * d
	}
	return s / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs, or +Inf for an empty slice.
func Min(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs, or -Inf for an empty slice.
func Max(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// Percentile returns the p-th percentile (0..100) of xs using linear
// interpolation between closest ranks.  It returns 0 for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// EWMA implements the weighted average of equation (1) in the paper:
//
//	RMTTF_i^t = (1-beta) * RMTTF_i^{t-1} + beta * lastRMTTF_i
//
// The first observation initialises the average directly so the series does
// not start biased toward zero.
type EWMA struct {
	beta   float64
	value  float64
	primed bool
}

// NewEWMA returns an EWMA with smoothing factor beta in [0,1].  Values
// outside the range are clamped, matching the paper's constraint 0<=beta<=1.
func NewEWMA(beta float64) *EWMA {
	if beta < 0 {
		beta = 0
	}
	if beta > 1 {
		beta = 1
	}
	return &EWMA{beta: beta}
}

// Update folds a new observation into the average and returns the new value.
func (e *EWMA) Update(x float64) float64 {
	if !e.primed {
		e.value = x
		e.primed = true
	} else {
		e.value = (1-e.beta)*e.value + e.beta*x
	}
	return e.value
}

// Value returns the current smoothed value (0 before any update).
func (e *EWMA) Value() float64 { return e.value }

// Welford maintains running mean/variance without storing samples
// (Welford's online algorithm).  Useful for long simulations where the
// response-time population is large.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add folds a new sample into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// Merge folds another accumulator into w using the parallel-update form of
// Welford's recurrence (Chan et al.), so per-partition accumulators can be
// combined into the exact aggregate moments.  Merging in a fixed partition
// order yields bit-reproducible results (floating-point addition is
// order-sensitive, so the caller's fold order is part of any determinism
// contract).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	delta := o.mean - w.mean
	w.mean += delta * float64(o.n) / float64(n)
	w.m2 += o.m2 + delta*delta*float64(w.n)*float64(o.n)/float64(n)
	if o.min < w.min {
		w.min = o.min
	}
	if o.max > w.max {
		w.max = o.max
	}
	w.n = n
}

// Count returns the number of samples.
func (w *Welford) Count() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the running population variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the running population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// String summarises the accumulator.
func (w *Welford) String() string {
	return fmt.Sprintf("n=%d mean=%.4f sd=%.4f min=%.4f max=%.4f",
		w.n, w.Mean(), w.StdDev(), w.min, w.max)
}
