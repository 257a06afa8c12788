package stats

import (
	"math"
	"slices"
	"testing"
)

// fuzzBounds is the bucket layout of FuzzStatsMerge: it straddles zero and
// leaves samples on both sides of the overflow bin.
var fuzzBounds = []float64{-100, -1, 0, 0.5, 1, 10, 1000}

// mergeTol is FuzzStatsMerge's relative tolerance for the floating-point
// moments, scaled by the largest sample magnitude (at least 1): a merged
// mean may differ from the streamed one by mergeTol×scale and a merged
// variance by mergeTol×scale².  Counts, bins, sums, minima and maxima must
// match exactly: the samples are multiples of 1/8 below 2^12 in magnitude,
// so any order of summing them is exact.
const mergeTol = 1e-9

// statsPart is one slice of the sample stream, accumulated both ways.
type statsPart struct {
	w Welford
	h *Histogram
}

func newStatsPart(xs []float64) statsPart {
	p := statsPart{h: NewHistogram(fuzzBounds)}
	p.fill(xs)
	return p
}

func (p *statsPart) fill(xs []float64) {
	for _, x := range xs {
		p.w.Add(x)
		p.h.Observe(x)
	}
}

// mergeParts folds parts left to right ((p0+p1)+p2)+… into acc, or right to
// left p0+(p1+(p2+…)) when rightFirst is set.
func mergeParts(parts []statsPart, rightFirst bool) statsPart {
	acc := statsPart{h: NewHistogram(fuzzBounds)}
	if !rightFirst {
		for _, p := range parts {
			acc.w.Merge(p.w)
			acc.h.Merge(p.h)
		}
		return acc
	}
	for i := len(parts) - 1; i >= 0; i-- {
		next := statsPart{w: parts[i].w, h: NewHistogram(fuzzBounds)}
		next.h.Merge(parts[i].h)
		next.w.Merge(acc.w)
		next.h.Merge(acc.h)
		acc = next
	}
	return acc
}

// FuzzStatsMerge splits a fuzzed sample stream at fuzzed points into
// Welford and Histogram parts, merges them left-first and right-first, and
// compares both with the stream accumulated in one pass.  It then Resets
// one part and the left-first aggregate, refills them, and requires the
// re-merged result to match the first bit for bit.  The first byte gives
// the number of cut points (0–3), the next bytes their positions as
// fractions of the stream, and every following byte pair one sample.
func FuzzStatsMerge(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0})
	f.Add([]byte{2, 64, 192, 10, 0, 250, 255, 3, 1, 0, 128, 8, 0, 7, 0})
	f.Add([]byte{3, 0, 0, 255, 1, 0, 1, 0, 1, 0, 1, 0})
	f.Add([]byte{1, 128, 255, 127, 0, 128, 40, 0, 40, 0, 5, 200})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		cuts := int(data[0] % 4)
		data = data[1:]
		if len(data) < cuts {
			return
		}
		frac, data := data[:cuts], data[cuts:]
		var xs []float64
		for i := 0; i+1 < len(data); i += 2 {
			xs = append(xs, float64(int16(uint16(data[i])|uint16(data[i+1])<<8))/8)
		}
		pos := make([]int, 0, cuts+2)
		pos = append(pos, 0)
		for _, b := range frac {
			pos = append(pos, int(b)*len(xs)/256)
		}
		pos = append(pos, len(xs))
		slices.Sort(pos)
		parts := make([]statsPart, len(pos)-1)
		for i := range parts {
			parts[i] = newStatsPart(xs[pos[i]:pos[i+1]])
		}

		stream := newStatsPart(xs)
		scale := 1.0
		for _, x := range xs {
			scale = max(scale, math.Abs(x))
		}
		left, right := mergeParts(parts, false), mergeParts(parts, true)
		for _, got := range []struct {
			name string
			p    statsPart
		}{{"left-first", left}, {"right-first", right}} {
			w, h := got.p.w, got.p.h
			if w.Count() != stream.w.Count() || w.min != stream.w.min || w.max != stream.w.max {
				t.Fatalf("%s Welford n/min/max %d/%g/%g, streamed %d/%g/%g", got.name,
					w.Count(), w.min, w.max, stream.w.Count(), stream.w.min, stream.w.max)
			}
			if d := math.Abs(w.Mean() - stream.w.Mean()); d > mergeTol*scale {
				t.Fatalf("%s mean %g, streamed %g (off by %g)", got.name, w.Mean(), stream.w.Mean(), d)
			}
			if d := math.Abs(w.Variance() - stream.w.Variance()); d > mergeTol*scale*scale {
				t.Fatalf("%s variance %g, streamed %g (off by %g)", got.name, w.Variance(), stream.w.Variance(), d)
			}
			if !slices.Equal(h.Counts(), stream.h.Counts()) || h.Count() != stream.h.Count() || h.Sum() != stream.h.Sum() {
				t.Fatalf("%s histogram %v n=%d sum=%g, streamed %v n=%d sum=%g", got.name,
					h.Counts(), h.Count(), h.Sum(), stream.h.Counts(), stream.h.Count(), stream.h.Sum())
			}
		}

		// Reset then refill: the middle part and the left-first aggregate.
		mid := len(parts) / 2
		parts[mid].w = Welford{}
		parts[mid].h.Reset()
		if parts[mid].h.Count() != 0 || parts[mid].h.Sum() != 0 || slices.ContainsFunc(parts[mid].h.Counts(), func(n uint64) bool { return n != 0 }) {
			t.Fatal("Reset left observations behind")
		}
		parts[mid].fill(xs[pos[mid]:pos[mid+1]])
		left.h.Reset()
		left.w = Welford{}
		for _, p := range parts {
			left.w.Merge(p.w)
			left.h.Merge(p.h)
		}
		again := mergeParts(parts, false)
		if left.w != again.w || !slices.Equal(left.h.Counts(), again.h.Counts()) ||
			left.h.Count() != again.h.Count() || left.h.Sum() != again.h.Sum() {
			t.Fatalf("a Reset and refilled aggregate differs from a fresh one: %v %v vs %v %v",
				left.w.String(), left.h.Counts(), again.w.String(), again.h.Counts())
		}
		first := mergeParts(parts, true)
		if first.w != right.w || !slices.Equal(first.h.Counts(), right.h.Counts()) || first.h.Sum() != right.h.Sum() {
			t.Fatal("a Reset and refilled part merges differently from the original")
		}
	})
}
