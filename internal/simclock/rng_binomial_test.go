package simclock

import (
	"math"
	"testing"
	"testing/quick"
)

// binomialCases exercises every branch of Binomial: the inversion walk
// (small np), the failure-counting symmetry (p > 0.5), the normal
// approximation (np > 50), and the degenerate edges.
var binomialCases = []struct {
	n int
	p float64
}{
	{0, 0.5}, {10, 0}, {10, 1}, {10, -0.2}, {10, 1.3},
	{10, 0.3}, {40, 0.9}, {1000, 0.02}, {1000, 0.98},
	{200, 0.5}, {100000, 0.01}, {1000000, 0.3},
}

// TestBinomialDeterministicRunTwice pins the run-twice byte-identity the
// cohort state-splitting rests on: the same seed replays the same counts,
// and interleaving draws for different (n, p) does not perturb the stream.
func TestBinomialDeterministicRunTwice(t *testing.T) {
	draw := func() []int {
		r := NewStreamRNG(42, 7)
		var out []int
		for rep := 0; rep < 50; rep++ {
			for _, c := range binomialCases {
				out = append(out, r.Binomial(c.n, c.p))
			}
		}
		return out
	}
	a, b := draw(), draw()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Binomial replay diverged at draw %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestBinomialTableMatchesBinomial pins the prepared draw to the plain one:
// for every n from 0 to past the table's end (and past the inversion
// threshold), a BinomialWith draw on a BinomialPow table and a Binomial draw
// on a twin generator return the same count and leave the two streams
// aligned.  A p the table does not serve (p <= 0, p >= 1, p > 0.5) gets no
// table, and its draws match too.
func TestBinomialTableMatchesBinomial(t *testing.T) {
	const maxN = 128
	for _, p := range []float64{0.05, 0.1, 0.25, 0.5} {
		pow := BinomialPow(p, maxN)
		if want := min(maxN, int(binomialInversionMax/p)) + 1; len(pow) != want {
			t.Fatalf("p=%g: table has %d entries, want %d", p, len(pow), want)
		}
		for n, f := range pow {
			if f != math.Pow(1-p, float64(n)) {
				t.Fatalf("p=%g: pow[%d] = %v, want math.Pow bits %v", p, n, f, math.Pow(1-p, float64(n)))
			}
		}
		checkTwinDraws(t, p, pow, int(binomialInversionMax/p)+20)
	}
	for _, p := range []float64{-0.2, 0, 1, 1.3, 0.5000001, 0.75, 0.9} {
		pow := BinomialPow(p, maxN)
		if pow != nil {
			t.Fatalf("p=%g: got a %d-entry table, want nil", p, len(pow))
		}
		checkTwinDraws(t, p, pow, 2*maxN)
	}
	if pow := BinomialPow(0.1, 0); pow != nil {
		t.Fatalf("maxN=0: got a %d-entry table, want nil", len(pow))
	}
}

// checkTwinDraws compares BinomialWith(n, p, pow) against Binomial(n, p) on
// twin generators for every n in [0, last], a few seeds each.
func checkTwinDraws(t *testing.T, p float64, pow []float64, last int) {
	t.Helper()
	for seed := uint64(0); seed < 8; seed++ {
		a, b := NewStreamRNG(seed, 11), NewStreamRNG(seed, 11)
		for n := 0; n <= last; n++ {
			if got, want := a.BinomialWith(n, p, pow), b.Binomial(n, p); got != want {
				t.Fatalf("p=%g n=%d seed=%d: table draw %d, Binomial %d", p, n, seed, got, want)
			}
			if a.Uint64() != b.Uint64() {
				t.Fatalf("p=%g n=%d seed=%d: streams diverged after the draw", p, n, seed)
			}
		}
	}
}

// TestBinomialSupport: the count always lands in [0, n], every branch.
func TestBinomialSupport(t *testing.T) {
	r := NewRNG(99)
	f := func(n uint16, p float64) bool {
		p = math.Mod(math.Abs(p), 1.5) // cover out-of-range p too
		k := r.Binomial(int(n), p)
		return k >= 0 && k <= int(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// TestBinomialChiSquared is the distributional sanity check behind the cohort
// transition draw: 2x10^4 samples of Binomial(20, 0.3) binned against the
// exact pmf must pass a chi-squared test.  The seed is fixed, so the
// statistic is a constant of the implementation, not a flaky draw; the bound
// is the 99.9th percentile of chi-squared with ~14 degrees of freedom plus
// slack.
func TestBinomialChiSquared(t *testing.T) {
	const (
		n     = 20
		p     = 0.3
		draws = 20000
	)
	r := NewStreamRNG(2026, 1)
	obs := make([]float64, n+1)
	for i := 0; i < draws; i++ {
		obs[r.Binomial(n, p)]++
	}
	// Exact pmf via the recurrence P(k+1) = P(k) * (n-k)/(k+1) * p/q.
	exp := make([]float64, n+1)
	exp[0] = math.Pow(1-p, n) * draws
	for k := 0; k < n; k++ {
		exp[k+1] = exp[k] * float64(n-k) / float64(k+1) * p / (1 - p)
	}
	// Merge the sparse tail into the last kept bin so every expected count
	// stays >= 5 (the usual chi-squared validity rule).
	chi2, tailObs, tailExp, bins := 0.0, 0.0, 0.0, 0
	for k := 0; k <= n; k++ {
		if exp[k] >= 5 {
			d := obs[k] - exp[k]
			chi2 += d * d / exp[k]
			bins++
		} else {
			tailObs += obs[k]
			tailExp += exp[k]
		}
	}
	if tailExp > 0 {
		d := tailObs - tailExp
		chi2 += d * d / tailExp
		bins++
	}
	if bins < 10 {
		t.Fatalf("degenerate binning: only %d bins", bins)
	}
	if chi2 > 40 {
		t.Fatalf("Binomial(%d, %g) failed chi-squared: statistic %.2f over %d bins", n, p, chi2, bins)
	}
}

// TestBinomialMoments checks mean and variance on the branches the
// chi-squared test does not reach (symmetry and normal approximation).
func TestBinomialMoments(t *testing.T) {
	cases := []struct {
		n     int
		p     float64
		draws int
	}{
		{40, 0.9, 20000},     // symmetry branch
		{100000, 0.01, 5000}, // normal-approximation branch
	}
	for _, c := range cases {
		r := NewStreamRNG(2026, 2, uint64(c.n))
		sum, sum2 := 0.0, 0.0
		for i := 0; i < c.draws; i++ {
			v := float64(r.Binomial(c.n, c.p))
			sum += v
			sum2 += v * v
		}
		mean := sum / float64(c.draws)
		variance := sum2/float64(c.draws) - mean*mean
		wantMean := float64(c.n) * c.p
		wantVar := wantMean * (1 - c.p)
		// 5-sigma band on the sample mean; 15% relative band on the variance.
		if tol := 5 * math.Sqrt(wantVar/float64(c.draws)); math.Abs(mean-wantMean) > tol {
			t.Errorf("Binomial(%d, %g): mean %.3f, want %.3f +/- %.3f", c.n, c.p, mean, wantMean, tol)
		}
		if math.Abs(variance-wantVar) > 0.15*wantVar {
			t.Errorf("Binomial(%d, %g): variance %.3f, want %.3f +/- 15%%", c.n, c.p, variance, wantVar)
		}
	}
}
