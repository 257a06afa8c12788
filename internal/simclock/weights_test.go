package simclock_test

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/simclock"
	"repro/internal/workload"
)

// choiceRef is the two-pass weighted choice Weights replaces: sum the
// positive weights, draw one target in [0, total), then walk the positive
// weights again until their running sum passes the target.  An all-zero
// vector falls back to a uniform Intn.  acc receives the running sum after
// each index, the values a prepared table must hold bit for bit.
func choiceRef(r *simclock.RNG, w []float64, acc []float64) int {
	total := 0.0
	for _, x := range w {
		if x > 0 {
			total += x
		}
	}
	sum := 0.0
	for i, x := range w {
		if x > 0 {
			sum += x
		}
		acc[i] = sum
	}
	if total <= 0 {
		return r.Intn(len(w))
	}
	target := r.Float64() * total
	sum = 0.0
	for i, x := range w {
		if x <= 0 {
			continue
		}
		sum += x
		if target < sum {
			return i
		}
	}
	return len(w) - 1
}

// weightVectors returns the vectors the draw-identity test runs on: every
// TPC-W mix, random vectors with zero and negative entries (some with
// leading and trailing zeros) over magnitudes wide enough that summation
// order shows in the bits, all-zero vectors and a single entry.
func weightVectors() map[string][]float64 {
	out := map[string][]float64{}
	for _, m := range []workload.Mix{workload.BrowsingMix(), workload.ShoppingMix(), workload.OrderingMix()} {
		w := make([]float64, len(m.Entries))
		for i, e := range m.Entries {
			w[i] = e.Weight
		}
		out["mix-"+m.Name] = w
	}
	rng := simclock.NewRNG(2016)
	for v := 0; v < 24; v++ {
		w := make([]float64, 1+rng.Intn(20))
		for i := range w {
			switch u := rng.Float64(); {
			case u < 0.25:
				w[i] = 0
			case u < 0.35:
				w[i] = -rng.Float64()
			default:
				w[i] = rng.Float64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
		}
		if v%3 == 0 {
			w[0] = 0
		}
		if v%4 == 0 {
			w[len(w)-1] = 0
		}
		out[fmt.Sprintf("random-%02d", v)] = w
	}
	out["zeros-1"] = []float64{0}
	out["zeros-3"] = []float64{0, 0, 0}
	out["zeros-negative"] = []float64{0, -1, 0, -2.5}
	out["single"] = []float64{2.5}
	return out
}

// TestWeightsMatchesTwoPassChoice pins the prepared table to the two-pass
// reference: the same prefix sums bit for bit, the same index on every one of
// 10^5 draws, the same RNG state afterwards, and no allocation per pick.
func TestWeightsMatchesTwoPassChoice(t *testing.T) {
	const draws = 100_000
	for name, w := range weightVectors() {
		table := simclock.NewWeights(append([]float64(nil), w...))
		acc := make([]float64, len(w))
		a, b := simclock.NewRNG(5), simclock.NewRNG(5)
		for i := 0; i < draws; i++ {
			got, want := table.Pick(a), choiceRef(b, w, acc)
			if got != want {
				t.Fatalf("%s draw %d: Pick = %d, reference = %d (weights %v)", name, i, got, want, w)
			}
		}
		for i, c := range table.PrefixSums() {
			if math.Float64bits(c) != math.Float64bits(acc[i]) {
				t.Fatalf("%s: prefix sum %d = %v, reference %v", name, i, c, acc[i])
			}
		}
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("%s: RNG state diverged after %d draws", name, draws)
		}
		if allocs := testing.AllocsPerRun(1000, func() { table.Pick(a) }); allocs != 0 {
			t.Fatalf("%s: Pick allocates %.1f times per call, want 0", name, allocs)
		}
	}
}

// FuzzWeightsGuideMatchesScan decodes the input as a weight vector (each
// byte a zero, a negative weight, a near-equal weight 1+k·2^-52, or a
// magnitude from 10^-3 to 10^3) and checks that the guide-table pick returns
// the linear walk's index for the least and greatest uniform of every guide
// bucket and for 10^3 drawn uniforms, and that Pick still matches the
// two-pass reference draw for draw, the all-non-positive fallback included.
func FuzzWeightsGuideMatchesScan(f *testing.F) {
	f.Add([]byte{0x40, 0x41, 0x42, 0x43, 0x44, 0x45, 0x46, 0x47, 0x48})       // near-equal
	f.Add([]byte{0, 0, 0xc0, 0, 0xff, 0, 0, 0x80, 0xc5, 0, 0})                // zeros around a few weights
	f.Add([]byte{0x81})                                                       // one entry
	f.Add([]byte{0, 0x01, 0x02, 0, 0x3f, 0x00, 0x10, 0x20, 0x30, 0x3e, 0x05}) // non-positive only
	f.Add([]byte{0xff, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}) // one weight dominates
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 300 {
			return
		}
		w := make([]float64, len(data))
		for i, b := range data {
			switch k := float64(b & 0x3f); b >> 6 {
			case 0:
				w[i] = -k // zero or negative
			case 1:
				w[i] = 1 + k*0x1p-52
			default:
				w[i] = math.Pow(10, k/10.5-3)
			}
		}
		table := simclock.NewWeights(append([]float64(nil), w...))
		if m := table.GuideLen(); m > 0 {
			if m < 4*len(w) || m&(m-1) != 0 {
				t.Fatalf("guide of %d entries for %d weights", m, len(w))
			}
			for j := 0; j < m; j++ {
				lo := float64(j) / float64(m)
				hi := float64(j+1)/float64(m) - 0x1p-53
				for _, u := range []float64{lo, hi} {
					if got, want := table.PickAt(u), table.PickLinear(u); got != want {
						t.Fatalf("u=%v: guide pick %d, linear walk %d (weights %v)", u, got, want, w)
					}
				}
			}
			r := simclock.NewRNG(uint64(len(data)))
			for i := 0; i < 1000; i++ {
				u := r.Float64()
				if got, want := table.PickAt(u), table.PickLinear(u); got != want {
					t.Fatalf("u=%v: guide pick %d, linear walk %d (weights %v)", u, got, want, w)
				}
			}
		}
		acc := make([]float64, len(w))
		a, b := simclock.NewRNG(7), simclock.NewRNG(7)
		for i := 0; i < 200; i++ {
			if got, want := table.Pick(a), choiceRef(b, w, acc); got != want {
				t.Fatalf("draw %d: Pick = %d, reference = %d (weights %v)", i, got, want, w)
			}
		}
	})
}
