package stats

import (
	"math"
	"testing"
)

// lcg is a tiny deterministic generator so the test needs no seed plumbing.
type lcg uint64

func (l *lcg) next() float64 {
	*l = lcg(uint64(*l)*6364136223846793005 + 1442695040888963407)
	return float64(uint64(*l)>>11) / float64(1<<53)
}

func TestP2QuantileUniform(t *testing.T) {
	for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
		e := NewP2Quantile(p)
		g := lcg(42)
		exact := make([]float64, 0, 20000)
		for i := 0; i < 20000; i++ {
			x := g.next()
			e.Add(x)
			exact = append(exact, x)
		}
		want := Percentile(exact, p*100)
		got := e.Value()
		if math.Abs(got-want) > 0.02 {
			t.Errorf("p=%v: P² estimate %v, exact %v", p, got, want)
		}
		if e.n != 20000 {
			t.Errorf("count = %d", e.n)
		}
	}
}

func TestP2QuantileExponential(t *testing.T) {
	// Heavy-ish tail: p95 of Exp(1) is -ln(0.05) ≈ 2.996.
	e := NewP2Quantile(0.95)
	g := lcg(7)
	for i := 0; i < 50000; i++ {
		e.Add(-math.Log(1 - g.next()))
	}
	want := -math.Log(0.05)
	if got := e.Value(); math.Abs(got-want)/want > 0.05 {
		t.Errorf("p95 estimate %v, want ≈ %v", e.Value(), want)
	}
}

func TestP2QuantileSmallSamples(t *testing.T) {
	e := NewP2Quantile(0.5)
	if e.Value() != 0 {
		t.Errorf("empty estimator: %v", e.Value())
	}
	e.Add(3)
	if e.Value() != 3 {
		t.Errorf("one sample: %v", e.Value())
	}
	e.Add(1)
	e.Add(2)
	if got := e.Value(); got != 2 {
		t.Errorf("median of {1,2,3} before priming: %v", got)
	}
}

func TestP2QuantileDeterministic(t *testing.T) {
	a, b := NewP2Quantile(0.95), NewP2Quantile(0.95)
	g := lcg(99)
	for i := 0; i < 1000; i++ {
		x := g.next()
		a.Add(x)
		b.Add(x)
	}
	if a.Value() != b.Value() {
		t.Errorf("same stream, different estimates: %v vs %v", a.Value(), b.Value())
	}
}

func TestP2QuantileClampsP(t *testing.T) {
	if got := NewP2Quantile(1.5).p; got != 0.99 {
		t.Errorf("clamped p = %v, want 0.99", got)
	}
	if got := NewP2Quantile(-1).p; got != 0.01 {
		t.Errorf("clamped p = %v, want 0.01", got)
	}
}
