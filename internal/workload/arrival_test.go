package workload

import (
	"math"
	"strings"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
)

func TestRateSpecValidate(t *testing.T) {
	bad := []RateSpec{
		{},
		{Kind: "bogus"},
		{Kind: RateConstant, Rate: 0},
		{Kind: RateSinusoid, Base: 0, Amplitude: 1, Period: simclock.Hour},
		{Kind: RateSinusoid, Base: 1, Amplitude: -1, Period: simclock.Hour},
		{Kind: RateSinusoid, Base: 1, Amplitude: 1},
		{Kind: RatePiecewise},
		{Kind: RatePiecewise, Steps: []RateStep{{Duration: 0, Rate: 1}}},
		{Kind: RatePiecewise, Steps: []RateStep{{Duration: 1, Rate: 0}}},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Fatalf("case %d: Validate accepted %+v", i, s)
		}
	}
	good := []RateSpec{
		{Kind: RateConstant, Rate: 5},
		{Kind: RateSinusoid, Base: 6, Amplitude: 4, Period: simclock.Hour, Phase: 10 * simclock.Minute},
		{Kind: RatePiecewise, Steps: []RateStep{{Duration: 60, Rate: 2}, {Duration: 30, Rate: 0}}},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Fatalf("case %d: Validate rejected %+v: %v", i, s, err)
		}
	}
}

// TestRateSpecValidateRejectsNonFinite: a NaN rate once passed Validate and
// panicked the event queue with a NaN timestamp, and a +Inf rate hung the
// run; every NaN or infinite field is rejected by name, whichever Kind
// reads it.  The specs are only validated, never run.
func TestRateSpecValidateRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		field string
		set   func(*RateSpec, float64)
	}{
		{"Rate", func(s *RateSpec, x float64) { s.Kind, s.Rate = RateConstant, x }},
		{"Base", func(s *RateSpec, x float64) { s.Base = x }},
		{"Amplitude", func(s *RateSpec, x float64) { s.Amplitude = x }},
		{"Period", func(s *RateSpec, x float64) { s.Period = simclock.Duration(x) }},
		{"Phase", func(s *RateSpec, x float64) { s.Phase = simclock.Duration(x) }},
		{"Steps[1].Duration", func(s *RateSpec, x float64) {
			s.Kind, s.Steps = RatePiecewise, []RateStep{{Duration: 60, Rate: 2}, {Duration: simclock.Duration(x), Rate: 1}}
		}},
		{"Steps[0].Rate", func(s *RateSpec, x float64) {
			s.Kind, s.Steps = RatePiecewise, []RateStep{{Duration: 60, Rate: x}}
		}},
	} {
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			s := RateSpec{Kind: RateSinusoid, Base: 6, Amplitude: 4, Period: simclock.Hour}
			tc.set(&s, x)
			want := "workload: " + tc.field + " must be >= 0, got "
			if err := s.Validate(); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s = %v: got error %v, want %q", tc.field, x, err, want)
			}
		}
	}
}

func TestRateSpecShapes(t *testing.T) {
	sin := RateSpec{Kind: RateSinusoid, Base: 6, Amplitude: 4, Period: simclock.Hour}
	if got := sin.At(0); math.Abs(got-6) > 1e-9 {
		t.Fatalf("sinusoid at t=0: %v, want 6", got)
	}
	if got := sin.At(simclock.Time(900)); math.Abs(got-10) > 1e-9 { // quarter period: peak
		t.Fatalf("sinusoid at peak: %v, want 10", got)
	}
	if got := sin.Max(); got != 10 {
		t.Fatalf("sinusoid max: %v, want 10", got)
	}

	clip := RateSpec{Kind: RateSinusoid, Base: 2, Amplitude: 6, Period: simclock.Hour}
	if got := clip.At(simclock.Time(2700)); got != 0 { // trough clamps at zero
		t.Fatalf("clipped sinusoid trough: %v, want 0", got)
	}

	pw := RateSpec{Kind: RatePiecewise, Steps: []RateStep{{Duration: 60, Rate: 2}, {Duration: 60, Rate: 8}}}
	if got := pw.At(30); got != 2 {
		t.Fatalf("piecewise step 0: %v, want 2", got)
	}
	if got := pw.At(90); got != 8 {
		t.Fatalf("piecewise step 1: %v, want 8", got)
	}
	if got := pw.At(150); got != 2 { // wraps around
		t.Fatalf("piecewise wrap: %v, want 2", got)
	}
	if got := pw.Max(); got != 8 {
		t.Fatalf("piecewise max: %v, want 8", got)
	}
}

// countingDispatcher completes every request immediately and bins arrivals
// by time.
type countingDispatcher struct {
	times []simclock.Time
}

func (c *countingDispatcher) Submit(eng *simclock.Engine, req *cloudsim.Request) {
	c.times = append(c.times, eng.Now())
	req.Finish(eng, cloudsim.Outcome{Request: req, Region: "stub", Start: eng.Now(), End: eng.Now()})
}

// TestVaryingOpenLoopThinningRate checks the thinning sampler empirically:
// the arrival counts in the peak and trough halves of a sinusoidal cycle
// must straddle the base rate the way λ(t) prescribes.
func TestVaryingOpenLoopThinningRate(t *testing.T) {
	spec := RateSpec{Kind: RateSinusoid, Base: 10, Amplitude: 8, Period: 2 * simclock.Hour}
	sink := &countingDispatcher{}
	gen, err := NewVaryingOpenLoop(VaryingOpenLoopConfig{Region: "stream", Rate: spec}, simclock.NewRNG(42), sink, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := simclock.NewEngine(1)
	gen.Start(eng)
	if err := eng.Run(2 * simclock.Hour); err != nil && err != simclock.ErrHorizonReached {
		t.Fatal(err)
	}
	gen.Stop()

	firstHalf, secondHalf := 0, 0
	for _, at := range sink.times {
		if at < simclock.Time(simclock.Hour) {
			firstHalf++
		} else {
			secondHalf++
		}
	}
	// Expected: first half (rising + peak) integrates to ~10h + 8·(2/π)·h/2
	// ≈ 54000 arrivals/3600... work in rates: mean rate of first half is
	// 10 + 8·2/π ≈ 15.1/s, second half 10 − 8·2/π ≈ 4.9/s.
	fr := float64(firstHalf) / 3600
	sr := float64(secondHalf) / 3600
	if fr < 13.5 || fr > 16.5 {
		t.Fatalf("peak-half rate %.2f/s, want ~15.1", fr)
	}
	if sr < 4.0 || sr > 6.0 {
		t.Fatalf("trough-half rate %.2f/s, want ~4.9", sr)
	}
	if gen.nextID != uint64(len(sink.times)) {
		t.Fatalf("last request ID %d != dispatched %d", gen.nextID, len(sink.times))
	}
}

// TestVaryingOpenLoopDeterministic: same seed, same arrival point process,
// down to the timestamp.
func TestVaryingOpenLoopDeterministic(t *testing.T) {
	run := func() []simclock.Time {
		spec := RateSpec{Kind: RatePiecewise, Steps: []RateStep{{Duration: 60, Rate: 5}, {Duration: 60, Rate: 1}}}
		sink := &countingDispatcher{}
		gen, err := NewVaryingOpenLoop(VaryingOpenLoopConfig{Region: "s", Rate: spec}, simclock.NewRNG(7), sink, nil)
		if err != nil {
			t.Fatal(err)
		}
		eng := simclock.NewEngine(1)
		gen.Start(eng)
		if err := eng.Run(10 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
			t.Fatal(err)
		}
		return sink.times
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs issued %d vs %d arrivals", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d at %v vs %v", i, a[i], b[i])
		}
	}
}
