package workload

import (
	"fmt"
	"math"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
	"repro/internal/tracing"
	"repro/internal/validate"
)

// This file adds time-varying request arrivals: an inhomogeneous Poisson
// process whose rate function λ(t) models diurnal traffic (sinusoidal cycles
// that peak at different times for different client geographies) or scripted
// load profiles (piecewise-constant steps).  Sampling uses the classic
// thinning construction (Lewis & Shedler 1979; see also "Conditional
// Densities and Simulations of Inhomogeneous Poisson Point Processes",
// arXiv:1901.10754): candidate points arrive as a homogeneous Poisson process
// at the envelope rate λ_max and each candidate at time t is accepted with
// probability λ(t)/λ_max.  Every accept/reject decision draws from the
// stream's own RNG, so the generated point process is a pure function of
// (RateSpec, seed) — deterministic under the repo's derived-RNG-stream
// scheme regardless of worker count.

// Rate-function kinds understood by RateSpec.
const (
	// RateConstant is a fixed rate: λ(t) = Rate.
	RateConstant = "constant"
	// RateSinusoid is a diurnal-style cycle:
	// λ(t) = max(0, Base + Amplitude·sin(2π(t+Phase)/Period)).
	RateSinusoid = "sinusoid"
	// RatePiecewise cycles through Steps: each step holds its Rate for its
	// Duration, then the next step begins (wrapping around at the end).
	RatePiecewise = "piecewise"
)

// RateStep is one segment of a piecewise-constant rate function.
type RateStep struct {
	// Duration is how long the step lasts.
	Duration simclock.Duration `domain:">=0"`
	// Rate is the arrival rate (requests per second) during the step.
	Rate float64 `domain:">=0"`
}

// RateSpec is a plain-data description of a rate function λ(t), chosen so
// scenarios carrying one round-trip through JSON.  Only the fields of the
// selected Kind are consulted.
type RateSpec struct {
	// Kind selects the rate function: RateConstant, RateSinusoid or
	// RatePiecewise.
	Kind string
	// Rate is the constant rate (RateConstant).
	Rate float64 `domain:">=0"`
	// Base and Amplitude parameterise the sinusoid (RateSinusoid); the rate
	// is clamped at zero, so Amplitude > Base yields quiet troughs.
	Base      float64 `domain:">=0"`
	Amplitude float64 `domain:">=0"`
	// Period and Phase set the sinusoid's cycle length and offset; staggering
	// Phase across client geographies makes their peaks land at different
	// times.
	Period simclock.Duration `domain:">=0"`
	Phase  simclock.Duration `domain:">=0"`
	// Steps is the piecewise-constant profile (RatePiecewise), cycled.
	Steps []RateStep
}

// Validate rejects specs the generator cannot sample from.
func (s RateSpec) Validate() error {
	if err := validate.Struct("workload", &s); err != nil {
		return err
	}
	switch s.Kind {
	case RateConstant:
		if s.Rate <= 0 {
			return validate.Fieldf("workload", "Rate", "(constant) must be positive, got %v", s.Rate)
		}
	case RateSinusoid:
		if s.Base <= 0 {
			return validate.Fieldf("workload", "Base", "(sinusoid) must be positive, got %v", s.Base)
		}
		if s.Period <= 0 {
			return validate.Fieldf("workload", "Period", "(sinusoid) must be positive, got %v", s.Period)
		}
	case RatePiecewise:
		if len(s.Steps) == 0 {
			return validate.Fieldf("workload", "Steps", "(piecewise) needs at least one step")
		}
		positive := false
		for i, st := range s.Steps {
			if st.Duration <= 0 {
				return validate.Fieldf("workload", fmt.Sprintf("Steps[%d].Duration", i), "must be positive, got %v", st.Duration)
			}
			if st.Rate > 0 {
				positive = true
			}
		}
		if !positive {
			return validate.Fieldf("workload", "Steps", "(piecewise) rate is zero everywhere")
		}
	default:
		return validate.Fieldf("workload", "Kind", "%q is an unknown rate kind (use %s, %s or %s)",
			s.Kind, RateConstant, RateSinusoid, RatePiecewise)
	}
	return nil
}

// At returns λ(t) in requests per second.
func (s RateSpec) At(t simclock.Time) float64 {
	switch s.Kind {
	case RateConstant:
		return s.Rate
	case RateSinusoid:
		phase := 2 * math.Pi * (t.Seconds() + s.Phase.Seconds()) / s.Period.Seconds()
		r := s.Base + s.Amplitude*math.Sin(phase)
		if r < 0 {
			return 0
		}
		return r
	case RatePiecewise:
		cycle := 0.0
		for _, st := range s.Steps {
			cycle += st.Duration.Seconds()
		}
		pos := math.Mod(t.Seconds(), cycle)
		for _, st := range s.Steps {
			if pos < st.Duration.Seconds() {
				return st.Rate
			}
			pos -= st.Duration.Seconds()
		}
		return s.Steps[len(s.Steps)-1].Rate
	default:
		return 0
	}
}

// Max returns the envelope rate λ_max used by the thinning sampler.
func (s RateSpec) Max() float64 {
	switch s.Kind {
	case RateConstant:
		return s.Rate
	case RateSinusoid:
		return s.Base + s.Amplitude
	case RatePiecewise:
		max := 0.0
		for _, st := range s.Steps {
			if st.Rate > max {
				max = st.Rate
			}
		}
		return max
	default:
		return 0
	}
}

// VaryingOpenLoopConfig describes one inhomogeneous-Poisson request stream.
type VaryingOpenLoopConfig struct {
	// Region labels the stream in the metrics sink and its traces
	// ("americas", "europe", ...).
	Region string
	// Rate is the time-varying arrival rate λ(t).
	Rate RateSpec
	// Mix is the interaction mix (BrowsingMix when zero-valued).
	Mix Mix
	// Tracer, when non-nil, samples the stream's requests into the span
	// layer under the "<region>-arrivals" stream identity.
	Tracer *tracing.Tracer
}

// VaryingOpenLoop is an open-loop request generator whose arrival process is
// an inhomogeneous Poisson process sampled by thinning.
type VaryingOpenLoop struct {
	cfg     VaryingOpenLoopConfig
	rng     *simclock.RNG
	target  Dispatcher
	sink    regionSink
	mix     Picker
	running bool
	nextID  uint64
}

// NewVaryingOpenLoop builds a generator.  The rate spec is validated up
// front so a malformed scenario fails at construction, not mid-run.
func NewVaryingOpenLoop(cfg VaryingOpenLoopConfig, rng *simclock.RNG, target Dispatcher, metrics *Metrics) (*VaryingOpenLoop, error) {
	if err := cfg.Rate.Validate(); err != nil {
		return nil, err
	}
	if cfg.Mix.Name == "" {
		cfg.Mix = BrowsingMix()
	}
	if metrics == nil {
		metrics = NewMetrics()
	}
	return &VaryingOpenLoop{cfg: cfg, rng: rng, target: target, sink: metrics.sink(cfg.Region), mix: cfg.Mix.Picker()}, nil
}

// Start begins generating arrivals.
func (v *VaryingOpenLoop) Start(eng *simclock.Engine) {
	if v.running {
		return
	}
	v.running = true
	v.scheduleNext(eng)
}

// Stop halts the generator.
func (v *VaryingOpenLoop) Stop() { v.running = false }

// scheduleNext draws the next thinning candidate: an exponential gap at the
// envelope rate λ_max, accepted with probability λ(t)/λ_max when it fires.
// Rejected candidates immediately schedule the next one, so the accepted
// points form exactly the inhomogeneous process with intensity λ(t).
func (v *VaryingOpenLoop) scheduleNext(eng *simclock.Engine) {
	if !v.running {
		return
	}
	max := v.cfg.Rate.Max()
	gap := simclock.Duration(v.rng.Exp(1 / max))
	eng.ScheduleFunc(gap, func(e *simclock.Engine) {
		if !v.running {
			return
		}
		// The accept draw is consumed unconditionally — even when λ(t) ==
		// λ_max — so the stream's RNG consumption depends only on the number
		// of candidates, never on float comparisons against the envelope.
		accept := v.rng.Float64() < v.cfg.Rate.At(e.Now())/max
		if accept {
			it := v.mix.Pick(v.rng)
			v.nextID++
			req := &cloudsim.Request{
				ID:            v.nextID,
				ServiceFactor: it.ServiceFactor,
				Arrival:       e.Now(),
				Trace:         v.cfg.Tracer.Start(v.cfg.Region+"-arrivals", v.nextID, 1, e.Now()),
			}
			req.OnDone = func(out cloudsim.Outcome) {
				sealTrace(req.Trace, out)
				v.sink.record(out)
			}
			v.sink.issued()
			v.target.Submit(e, req)
		}
		v.scheduleNext(e)
	})
}
