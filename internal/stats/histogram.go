package stats

import "sort"

// Histogram is a fixed-bound bucketed distribution: counts per upper bound
// plus an implicit +Inf overflow bin, with a running sum and count.  Like
// Welford, it supports exact pairwise Merge, so per-shard histograms folded
// in shard-index order are bit-reproducible for any worker count — integer
// bin counts commute, and the sum is merged in the same fixed order as the
// Welford moments.
type Histogram struct {
	bounds []float64 // strictly increasing upper bounds, without +Inf
	counts []uint64  // len(bounds)+1; last bin is the +Inf overflow
	sum    float64
	count  uint64
}

// NewHistogram returns a histogram with the given strictly increasing upper
// bounds.  The bounds slice is shared, not copied; callers pass package-level
// bucket layouts.
func NewHistogram(bounds []float64) *Histogram {
	return &Histogram{bounds: bounds, counts: make([]uint64, len(bounds)+1)}
}

// Observe adds one sample: it lands in the first bin whose upper bound is
// >= v, or the +Inf overflow bin.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.count++
}

// Merge folds src into h.  Both histograms must share the same bucket
// layout; mismatched layouts are ignored rather than corrupting bins.
func (h *Histogram) Merge(src *Histogram) {
	if src == nil || len(src.counts) != len(h.counts) {
		return
	}
	for i, n := range src.counts {
		h.counts[i] += n
	}
	h.sum += src.sum
	h.count += src.count
}

// Reset zeroes every bin, the sum and the count in place, keeping the
// bucket layout.
func (h *Histogram) Reset() {
	clear(h.counts)
	h.sum, h.count = 0, 0
}

// Counts returns a copy of the per-bin counts; the last entry is the +Inf
// overflow bin.
func (h *Histogram) Counts() []uint64 {
	out := make([]uint64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Sum returns the running sum of all observed values.
func (h *Histogram) Sum() float64 { return h.sum }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }
