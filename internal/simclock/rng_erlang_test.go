package simclock

import (
	"math"
	"slices"
	"testing"
)

// TestErlangDeterministicRunTwice pins the run-twice byte-identity of
// Erlang on both of its branches, the sum of exponentials and the gamma
// sampler: the same seed replays the same draws.
func TestErlangDeterministicRunTwice(t *testing.T) {
	draw := func() []float64 {
		r := NewStreamRNG(42, 8)
		var out []float64
		for rep := 0; rep < 50; rep++ {
			for _, n := range []int{0, 1, 3, 20, 50, 51, 400} {
				out = append(out, r.Erlang(n, 0.04))
			}
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Erlang replay diverged at draw %d: %g vs %g", i, a[i], b[i])
		}
	}
}

// TestErlangSumBranchIsSummedExp: for every n up to erlangSumMax,
// Erlang(n, mean) returns the bits of n Exp(mean) draws added in order and
// leaves the generator where they leave it, so those shapes keep the
// stream they have always drawn.
func TestErlangSumBranchIsSummedExp(t *testing.T) {
	for n := 1; n <= erlangSumMax; n++ {
		for seed := uint64(0); seed < 20; seed++ {
			a, b := NewStreamRNG(seed, 12), NewStreamRNG(seed, 12)
			for i := 0; i < 100; i++ {
				got := a.Erlang(n, 0.04)
				want := 0.0
				for k := 0; k < n; k++ {
					want += b.Exp(0.04)
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("n=%d seed=%d draw %d: Erlang %v, summed Exp %v", n, seed, i, got, want)
				}
				if *a != *b {
					t.Fatalf("n=%d seed=%d draw %d: generator states diverged", n, seed, i)
				}
			}
		}
	}
}

// erlangCDF is the exact Erlang(n, 1) distribution function,
// 1 - Σ_{k<n} e^{-x} x^k / k!.  The sum runs on the terms x^k/k! and meets
// e^{-x} in log space, so neither underflows for the shapes tested.
func erlangCDF(n int, x float64) float64 {
	if x <= 0 {
		return 0
	}
	term, sum := 1.0, 1.0
	for k := 1; k < n; k++ {
		term *= x / float64(k)
		sum += term
	}
	return 1 - math.Exp(math.Log(sum)-x)
}

// ksCritical is the α = 0.001 critical value of the one-sample
// Kolmogorov–Smirnov statistic for m draws: a correct sampler exceeds it on
// one seed in a thousand.
func ksCritical(m int) float64 { return 1.95 / math.Sqrt(float64(m)) }

// ksStatistic returns sup |F_m(x) - cdf(x)| over the sorted sample xs.
func ksStatistic(xs []float64, cdf func(float64) float64) float64 {
	m := float64(len(xs))
	d := 0.0
	for i, x := range xs {
		f := cdf(x)
		d = max(d, f-float64(i)/m, float64(i+1)/m-f)
	}
	return d
}

// TestErlangKolmogorovSmirnov tests Erlang(n, mean) against the exact
// Erlang CDF at shapes the gamma sampler serves, on both sides of n = 50,
// above which Erlang used to draw a normal approximation (which failed the
// n = 51 and n = 128 rows), 10 seeds of 10^5 draws each.  The seeds are
// fixed, so each statistic is a constant of the implementation, not a flaky
// draw.
func TestErlangKolmogorovSmirnov(t *testing.T) {
	const (
		draws = 100_000
		mean  = 0.04
	)
	crit := ksCritical(draws)
	xs := make([]float64, draws)
	for _, n := range []int{2, 3, 4, 8, 20, 50, 51, 128} {
		for seed := uint64(1); seed <= 10; seed++ {
			r := NewStreamRNG(seed, 13, uint64(n))
			for i := range xs {
				xs[i] = r.Erlang(n, mean) / mean
			}
			slices.Sort(xs)
			if d := ksStatistic(xs, func(x float64) float64 { return erlangCDF(n, x) }); d > crit {
				t.Errorf("Erlang(%d) seed %d: KS D = %.5f > %.5f", n, seed, d, crit)
			}
		}
	}
}

// TestZigguratNormalKolmogorovSmirnov tests the gamma sampler's normal
// draw against the standard normal CDF, 10 seeds of 10^5 draws each.  The
// tail branch serves the draws beyond the ziggurat's base edge zigR, too
// few (about 576 of the 10^6) to move the KS statistic, so their count and
// their mean excess over zigR must each lie within 5 standard deviations of
// the exact values.
func TestZigguratNormalKolmogorovSmirnov(t *testing.T) {
	const draws = 100_000
	crit := ksCritical(draws)
	phi := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	xs := make([]float64, draws)
	tail, excess := 0, 0.0
	for seed := uint64(1); seed <= 10; seed++ {
		r := NewStreamRNG(seed, 14)
		for i := range xs {
			xs[i] = r.zigguratNormal()
			if a := math.Abs(xs[i]); a > zigR {
				tail++
				excess += a - zigR
			}
		}
		slices.Sort(xs)
		if d := ksStatistic(xs, phi); d > crit {
			t.Errorf("seed %d: KS D = %.5f > %.5f", seed, d, crit)
		}
	}
	q := math.Erfc(zigR / math.Sqrt2) // P(|X| > zigR)
	if want := 10 * draws * q; math.Abs(float64(tail)-want) > 5*math.Sqrt(want) {
		t.Errorf("%d draws beyond %g, want %.0f +/- %.0f", tail, zigR, want, 5*math.Sqrt(want))
	}
	// Beyond zigR the excess has mean λ - zigR and variance
	// 1 + zigR·λ - λ², with λ = φ(zigR)/P(X > zigR) the Mills ratio.
	lambda := math.Exp(-zigR*zigR/2) / math.Sqrt(2*math.Pi) / (q / 2)
	want, sd := lambda-zigR, math.Sqrt((1+zigR*lambda-lambda*lambda)/float64(tail))
	if got := excess / float64(tail); math.Abs(got-want) > 5*sd {
		t.Errorf("mean excess beyond %g: %.4f, want %.4f +/- %.4f", zigR, got, want, 5*sd)
	}
}

// TestZigguratNormalChiSquare bins 10^7 draws of the gamma sampler's
// normal into 80 cells of width 0.1 over [-4, 4] plus the two tails, a
// sample large enough to see the wedges between the ziggurat's layers
// (each wedge test always accepting, or never, reads χ² above 2000).  The
// seed is fixed, so the statistic is a constant of the implementation.
func TestZigguratNormalChiSquare(t *testing.T) {
	const (
		draws = 10_000_000
		width = 0.1
		cells = 80
		// chi2Crit81 is the 0.999 quantile of χ² with 81 degrees of
		// freedom (Wilson–Hilferty).
		chi2Crit81 = 126.1
	)
	obs := make([]float64, cells+2) // obs[0] below -4, obs[cells+1] above 4
	r := NewStreamRNG(5, 15)
	for i := 0; i < draws; i++ {
		k := int(math.Floor((r.zigguratNormal()+cells*width/2)/width)) + 1
		obs[min(max(k, 0), cells+1)]++
	}
	phi := func(x float64) float64 { return 0.5 * math.Erfc(-x/math.Sqrt2) }
	stat := 0.0
	for k, o := range obs {
		lo, hi := math.Inf(-1), math.Inf(1)
		if k > 0 {
			lo = float64(k-1)*width - cells*width/2
		}
		if k <= cells {
			hi = float64(k)*width - cells*width/2
		}
		want := draws * (phi(hi) - phi(lo))
		stat += (o - want) * (o - want) / want
	}
	if stat > chi2Crit81 {
		t.Errorf("χ² = %.1f > %.1f over %d cells", stat, chi2Crit81, len(obs))
	}
}

// TestErlangMoments: Erlang(n, mean) must have mean n*mean and variance
// n*mean^2, on the summed-exponentials and the gamma branches.
func TestErlangMoments(t *testing.T) {
	for _, n := range []int{3, 4, 30, 51, 120, 128} {
		const (
			mean  = 0.04
			draws = 20000
		)
		r := NewStreamRNG(2026, 3, uint64(n))
		sum, sum2 := 0.0, 0.0
		for i := 0; i < draws; i++ {
			v := r.Erlang(n, mean)
			if v < 0 {
				t.Fatalf("Erlang(%d, %g) returned negative %g", n, mean, v)
			}
			sum += v
			sum2 += v * v
		}
		m := sum / draws
		variance := sum2/draws - m*m
		wantMean := float64(n) * mean
		wantVar := float64(n) * mean * mean
		if tol := 5 * math.Sqrt(wantVar/draws); math.Abs(m-wantMean) > tol {
			t.Errorf("Erlang(%d): mean %.4f, want %.4f +/- %.4f", n, m, wantMean, tol)
		}
		if math.Abs(variance-wantVar) > 0.15*wantVar {
			t.Errorf("Erlang(%d): variance %.6f, want %.6f +/- 15%%", n, variance, wantVar)
		}
	}
}

// FuzzErlang draws Erlang(n, mean) for n in [0, 300] and a mean from the
// fuzz input: the draw is finite and non-negative, two generators on the
// same seed replay it bit for bit, and up to erlangSumMax it is the sum of
// n Exp draws.  A mean no VM could compute (not finite, or so large that
// the draw overflows) is skipped.
func FuzzErlang(f *testing.F) {
	for _, c := range []struct {
		seed uint64
		n    uint16
		mean float64
	}{
		{1, 0, 0.04}, {2, 1, 0.04}, {3, 3, 0.04}, {4, 4, 1}, {5, 51, 0.04},
		{6, 128, 2.5}, {7, 300, 1e-300}, {8, 20, -1}, {9, 2, 1e300},
	} {
		f.Add(c.seed, c.n, c.mean)
	}
	f.Fuzz(func(t *testing.T, seed uint64, n16 uint16, mean float64) {
		if math.IsNaN(mean) || math.Abs(mean) > 1e300 {
			t.Skip("mean outside what a VM computes")
		}
		n := int(n16 % 301)
		a, b := NewRNG(seed), NewRNG(seed)
		got := a.Erlang(n, mean)
		if math.IsNaN(got) || math.IsInf(got, 0) || got < 0 {
			t.Fatalf("Erlang(%d, %g) = %v, want finite and >= 0", n, mean, got)
		}
		if n > erlangSumMax {
			if again := b.Erlang(n, mean); math.Float64bits(again) != math.Float64bits(got) {
				t.Fatalf("Erlang(%d, %g) replayed %v, first draw %v", n, mean, again, got)
			}
		} else {
			want := 0.0
			for k := 0; k < n; k++ {
				want += b.Exp(mean)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Erlang(%d, %g) = %v, summed Exp %v", n, mean, got, want)
			}
		}
		if *a != *b {
			t.Fatalf("Erlang(%d, %g): generators on one seed ended apart", n, mean)
		}
	})
}
