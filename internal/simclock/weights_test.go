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
