package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanVarianceStdDev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if Mean(xs) != 5 {
		t.Fatalf("mean = %f, want 5", Mean(xs))
	}
	if Variance(xs) != 4 {
		t.Fatalf("variance = %f, want 4", Variance(xs))
	}
	if StdDev(xs) != 2 {
		t.Fatalf("stddev = %f, want 2", StdDev(xs))
	}
	if Mean(nil) != 0 || Variance(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
}

func TestMinMaxSum(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("min/max wrong: %f %f", Min(xs), Max(xs))
	}
	if !math.IsInf(Min(nil), 1) || !math.IsInf(Max(nil), -1) {
		t.Fatal("empty min/max should be infinities")
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(xs, 50) != 3 {
		t.Fatalf("median = %f, want 3", Percentile(xs, 50))
	}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("extreme percentiles wrong")
	}
	if !almostEqual(Percentile(xs, 25), 2, 1e-9) {
		t.Fatalf("p25 = %f, want 2", Percentile(xs, 25))
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Interpolated value
	if !almostEqual(Percentile([]float64{1, 2}, 50), 1.5, 1e-9) {
		t.Fatal("interpolation wrong")
	}
}

func TestCoefficientOfVariation(t *testing.T) {
	if CoefficientOfVariation([]float64{5, 5, 5}) != 0 {
		t.Fatal("constant series should have CV 0")
	}
	if CoefficientOfVariation([]float64{0, 0}) != 0 {
		t.Fatal("zero-mean series should return 0")
	}
	cv := CoefficientOfVariation([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if !almostEqual(cv, 2.0/5.0, 1e-9) {
		t.Fatalf("cv = %f, want 0.4", cv)
	}
}

func TestEWMAFirstSamplePrimes(t *testing.T) {
	e := NewEWMA(0.3)
	if e.primed {
		t.Fatal("fresh EWMA must not be primed")
	}
	e.Update(10)
	if e.Value() != 10 {
		t.Fatalf("first sample should prime the value, got %f", e.Value())
	}
	e.Update(20)
	want := 0.7*10 + 0.3*20
	if !almostEqual(e.Value(), want, 1e-12) {
		t.Fatalf("EWMA = %f, want %f", e.Value(), want)
	}
}

func TestEWMAClampsBeta(t *testing.T) {
	if NewEWMA(-1).beta != 0 || NewEWMA(2).beta != 1 {
		t.Fatal("beta must be clamped to [0,1]")
	}
	// beta=1 tracks the last sample exactly.
	e := NewEWMA(1)
	e.Update(3)
	e.Update(9)
	if e.Value() != 9 {
		t.Fatal("beta=1 must track the last observation")
	}
	// beta=0 keeps the first sample forever.
	e = NewEWMA(0)
	e.Update(3)
	e.Update(9)
	if e.Value() != 3 {
		t.Fatal("beta=0 must keep the first observation")
	}
}

func TestEWMAReset(t *testing.T) {
	e := NewEWMA(0.5)
	e.Update(4)
	e.Reset()
	if e.primed || e.Value() != 0 {
		t.Fatal("reset should clear state")
	}
}

// Property: the EWMA value is always within [min, max] of the observations.
func TestEWMABoundedProperty(t *testing.T) {
	f := func(raw []float64, betaRaw float64) bool {
		if len(raw) == 0 {
			return true
		}
		beta := math.Abs(math.Mod(betaRaw, 1))
		e := NewEWMA(beta)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return true
			}
			// Keep magnitudes sane to avoid float blowups irrelevant here.
			v = math.Mod(v, 1e6)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			e.Update(v)
			if e.Value() < lo-1e-9 || e.Value() > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWelford(t *testing.T) {
	var w Welford
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	for _, x := range xs {
		w.Add(x)
	}
	if w.Count() != len(xs) {
		t.Fatalf("count = %d", w.Count())
	}
	if !almostEqual(w.Mean(), 5, 1e-12) {
		t.Fatalf("mean = %f", w.Mean())
	}
	if !almostEqual(w.Variance(), 4, 1e-9) {
		t.Fatalf("variance = %f", w.Variance())
	}
	if w.min != 2 || w.max != 9 {
		t.Fatalf("min/max = %f/%f", w.min, w.max)
	}
	if w.String() == "" {
		t.Fatal("String should be non-empty")
	}
	var empty Welford
	if empty.Variance() != 0 || empty.StdDev() != 0 {
		t.Fatal("empty Welford should report 0 variance")
	}
}

// Property: Welford mean/variance matches the batch computation.
func TestWelfordMatchesBatchProperty(t *testing.T) {
	f := func(raw []float64) bool {
		var xs []float64
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			xs = append(xs, math.Mod(v, 1e4))
		}
		if len(xs) < 2 {
			return true
		}
		var w Welford
		for _, x := range xs {
			w.Add(x)
		}
		return almostEqual(w.Mean(), Mean(xs), 1e-6) && almostEqual(w.Variance(), Variance(xs), 1e-4)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
