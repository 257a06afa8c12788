package stats

import (
	"math"
	"testing"
)

func TestSeriesBasics(t *testing.T) {
	s := NewSeries("rmttf")
	if s.Len() != 0 {
		t.Fatal("empty series should have no points")
	}
	s.Add(0, 10)
	s.Add(10, 20)
	s.Add(20, 30)
	if s.Len() != 3 || s.Points[2] != (Point{T: 20, V: 30}) {
		t.Fatalf("len=%d points=%v", s.Len(), s.Points)
	}
	if got := s.Values(); len(got) != 3 || got[1] != 20 {
		t.Fatalf("values wrong: %v", got)
	}
}

func TestSeriesAt(t *testing.T) {
	s := NewSeries("x")
	s.Add(10, 1)
	s.Add(20, 2)
	if s.At(5) != 0 {
		t.Fatal("before first point should be 0")
	}
	if s.At(10) != 1 || s.At(15) != 1 {
		t.Fatal("step interpolation wrong in [10,20)")
	}
	if s.At(20) != 2 || s.At(100) != 2 {
		t.Fatal("step interpolation wrong after last point")
	}
}

func TestSeriesTail(t *testing.T) {
	s := NewSeries("x")
	for i := 0; i <= 100; i++ {
		s.Add(float64(i), float64(i))
	}
	tail := s.Tail(0.3)
	if len(tail) != 31 {
		t.Fatalf("expected 31 tail points, got %d", len(tail))
	}
	if tail[0] != 70 {
		t.Fatalf("tail should start at 70, got %f", tail[0])
	}
	if got := s.Tail(0); got != nil {
		t.Fatal("frac=0 should return nil")
	}
	if got := s.Tail(1.5); len(got) != 101 {
		t.Fatal("frac>=1 should return everything")
	}
	if NewSeries("e").Tail(0.5) != nil {
		t.Fatal("empty series tail should be nil")
	}
	if !almostEqual(s.TailMean(0.3), 85, 1e-9) {
		t.Fatalf("tail mean = %f", s.TailMean(0.3))
	}
	if s.TailStdDev(0.3) <= 0 {
		t.Fatal("tail stddev should be positive")
	}
}

func TestOscillationIndex(t *testing.T) {
	flat := NewSeries("flat")
	osc := NewSeries("osc")
	for i := 0; i < 100; i++ {
		flat.Add(float64(i), 10)
		if i%2 == 0 {
			osc.Add(float64(i), 5)
		} else {
			osc.Add(float64(i), 15)
		}
	}
	if flat.OscillationIndex(0.5) != 0 {
		t.Fatal("flat series should have zero oscillation")
	}
	if osc.OscillationIndex(0.5) <= 0.5 {
		t.Fatalf("alternating series should have large oscillation, got %f", osc.OscillationIndex(0.5))
	}
	if NewSeries("e").OscillationIndex(0.5) != 0 {
		t.Fatal("empty series oscillation should be 0")
	}
}

func TestDirectionChanges(t *testing.T) {
	s := NewSeries("zigzag")
	vals := []float64{1, 2, 1, 2, 1, 2}
	for i, v := range vals {
		s.Add(float64(i), v)
	}
	if got := s.DirectionChanges(1); got != 4 {
		t.Fatalf("expected 4 direction changes, got %d", got)
	}
	mono := NewSeries("mono")
	for i := 0; i < 6; i++ {
		mono.Add(float64(i), float64(i))
	}
	if mono.DirectionChanges(1) != 0 {
		t.Fatal("monotone series should have no direction changes")
	}
}

func TestAnalyzeConvergenceConverged(t *testing.T) {
	a := NewSeries("r1")
	b := NewSeries("r2")
	for i := 0; i <= 100; i++ {
		t_ := float64(i)
		// Both series converge to 100 after t=50.
		if i < 50 {
			a.Add(t_, 50+t_)
			b.Add(t_, 150-t_)
		} else {
			a.Add(t_, 100)
			b.Add(t_, 100)
		}
	}
	rep := AnalyzeConvergence([]*Series{a, b}, 0.3, 0.05)
	if !rep.Converged {
		t.Fatalf("series should converge: %v", rep)
	}
	if math.IsInf(rep.ConvergenceTime, 1) || rep.ConvergenceTime > 60 {
		t.Fatalf("convergence time should be near 50, got %f", rep.ConvergenceTime)
	}
	if rep.String() == "" {
		t.Fatal("report string should not be empty")
	}
}

func TestAnalyzeConvergenceDiverged(t *testing.T) {
	a := NewSeries("r1")
	b := NewSeries("r2")
	for i := 0; i <= 100; i++ {
		a.Add(float64(i), 100)
		b.Add(float64(i), 200)
	}
	rep := AnalyzeConvergence([]*Series{a, b}, 0.3, 0.05)
	if rep.Converged {
		t.Fatal("series at 100 vs 200 must not be reported as converged")
	}
	if rep.RelativeSpread < 0.5 {
		t.Fatalf("spread should be large, got %f", rep.RelativeSpread)
	}
	if !math.IsInf(rep.ConvergenceTime, 1) {
		t.Fatal("non-converged series should have infinite convergence time")
	}
	if rep.String() == "" {
		t.Fatal("report string should not be empty")
	}
}

func TestAnalyzeConvergenceEmpty(t *testing.T) {
	rep := AnalyzeConvergence(nil, 0.3, 0.05)
	if rep.Converged {
		t.Fatal("empty input should not be converged")
	}
}

func TestSeriesSet(t *testing.T) {
	ss := NewSeriesSet("fig3")
	r1 := ss.Add("region1")
	r2 := ss.Add("region2")
	r1.Add(0, 1)
	r2.Add(0, 1)
	if ss.Get("region1") != r1 || ss.Get("missing") != nil {
		t.Fatal("Get lookup broken")
	}
	names := ss.Names()
	if len(names) != 2 || names[0] != "region1" {
		t.Fatalf("names wrong: %v", names)
	}
	rep := ss.Analyze(0.5, 0.05)
	if !rep.Converged {
		t.Fatal("identical constant series should be converged")
	}
	if ss.String() == "" {
		t.Fatal("String should not be empty")
	}
}
