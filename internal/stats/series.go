package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (time, value) observation in a Series.
type Point struct {
	T float64 // simulated time, seconds
	V float64
}

// Series is an append-only time series of observations, e.g. the RMTTF of a
// region or the workload fraction f_i over the course of an experiment.
type Series struct {
	Name   string
	Points []Point
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{Name: name} }

// Add appends an observation.  Observations are expected in non-decreasing
// time order (the simulation produces them that way); out-of-order points are
// accepted but tail-window computations assume ordering.
func (s *Series) Add(t, v float64) { s.Points = append(s.Points, Point{T: t, V: v}) }

// Len returns the number of observations.
func (s *Series) Len() int { return len(s.Points) }

// Values returns all observation values in order.
func (s *Series) Values() []float64 {
	out := make([]float64, len(s.Points))
	for i, p := range s.Points {
		out[i] = p.V
	}
	return out
}

// At returns the value of the most recent observation at or before time t
// (step interpolation).  Returns 0 before the first observation.
func (s *Series) At(t float64) float64 {
	idx := sort.Search(len(s.Points), func(i int) bool { return s.Points[i].T > t })
	if idx == 0 {
		return 0
	}
	return s.Points[idx-1].V
}

// Tail returns the values of observations whose time is within the final
// fraction frac of the observed time span.  frac=0.3 returns the last 30% of
// the experiment, the window used to judge steady-state behaviour.
func (s *Series) Tail(frac float64) []float64 {
	if len(s.Points) == 0 {
		return nil
	}
	if frac <= 0 {
		return nil
	}
	if frac >= 1 {
		return s.Values()
	}
	start := s.Points[0].T
	end := s.Points[len(s.Points)-1].T
	cut := end - (end-start)*frac
	var out []float64
	for _, p := range s.Points {
		if p.T >= cut {
			out = append(out, p.V)
		}
	}
	return out
}

// TailMean returns the mean of the tail window.
func (s *Series) TailMean(frac float64) float64 { return Mean(s.Tail(frac)) }

// TailStdDev returns the standard deviation of the tail window.
func (s *Series) TailStdDev(frac float64) float64 { return StdDev(s.Tail(frac)) }

// OscillationIndex quantifies how much the series keeps moving in its tail
// window: the mean absolute difference between consecutive tail observations,
// normalised by the tail mean.  A converged, stable series has an index near
// zero; a series that keeps oscillating (Policy 1 in the paper) has a large
// index.
func (s *Series) OscillationIndex(tailFrac float64) float64 {
	tail := s.Tail(tailFrac)
	if len(tail) < 2 {
		return 0
	}
	m := Mean(tail)
	if m == 0 {
		m = 1
	}
	sum := 0.0
	for i := 1; i < len(tail); i++ {
		sum += math.Abs(tail[i] - tail[i-1])
	}
	return sum / float64(len(tail)-1) / math.Abs(m)
}

// DirectionChanges counts sign changes of the discrete derivative over the
// tail window — another view of oscillation used for the f_i series.
func (s *Series) DirectionChanges(tailFrac float64) int {
	tail := s.Tail(tailFrac)
	changes := 0
	prevSign := 0
	for i := 1; i < len(tail); i++ {
		d := tail[i] - tail[i-1]
		sign := 0
		if d > 1e-12 {
			sign = 1
		} else if d < -1e-12 {
			sign = -1
		}
		if sign != 0 && prevSign != 0 && sign != prevSign {
			changes++
		}
		if sign != 0 {
			prevSign = sign
		}
	}
	return changes
}

// ConvergenceReport captures whether a group of series (one per region)
// converged to a common value, how quickly, and how stable they are — the
// three qualitative axes the paper uses to compare the policies.
type ConvergenceReport struct {
	// Converged is true when the tail means of all series lie within the
	// relative tolerance of their common mean.
	Converged bool
	// RelativeSpread is (max tail mean - min tail mean) / mean of tail means.
	RelativeSpread float64
	// ConvergenceTime is the earliest simulated time after which all series
	// stay within the tolerance of their running common mean; math.Inf(1) when
	// they never converge.
	ConvergenceTime float64
	// MeanOscillation is the average oscillation index across the series.
	MeanOscillation float64
}

// String renders the report in a compact single line.
func (r ConvergenceReport) String() string {
	conv := "no"
	if r.Converged {
		conv = "yes"
	}
	ct := "never"
	if !math.IsInf(r.ConvergenceTime, 1) {
		ct = fmt.Sprintf("%.0fs", r.ConvergenceTime)
	}
	return fmt.Sprintf("converged=%s spread=%.3f convTime=%s oscillation=%.4f",
		conv, r.RelativeSpread, ct, r.MeanOscillation)
}

// AnalyzeConvergence inspects a group of series, one per region, and reports
// whether they converged to a common value.  tailFrac selects the
// steady-state window and tol the relative tolerance for "same value".
func AnalyzeConvergence(series []*Series, tailFrac, tol float64) ConvergenceReport {
	rep := ConvergenceReport{ConvergenceTime: math.Inf(1)}
	if len(series) == 0 {
		return rep
	}
	tails := make([]float64, len(series))
	osc := 0.0
	for i, s := range series {
		tails[i] = s.TailMean(tailFrac)
		osc += s.OscillationIndex(tailFrac)
	}
	rep.MeanOscillation = osc / float64(len(series))
	m := Mean(tails)
	if m == 0 {
		m = 1
	}
	rep.RelativeSpread = (Max(tails) - Min(tails)) / math.Abs(m)
	rep.Converged = rep.RelativeSpread <= tol

	if rep.Converged {
		rep.ConvergenceTime = convergenceTime(series, tol)
	}
	return rep
}

// convergenceTime returns the earliest time after which the per-series step
// values remain within tol (relative spread) of each other until the end of
// the observation window.
func convergenceTime(series []*Series, tol float64) float64 {
	// Build the union of observation times.
	timesSet := map[float64]struct{}{}
	for _, s := range series {
		for _, p := range s.Points {
			timesSet[p.T] = struct{}{}
		}
	}
	if len(timesSet) == 0 {
		return math.Inf(1)
	}
	times := make([]float64, 0, len(timesSet))
	for t := range timesSet {
		times = append(times, t)
	}
	sort.Float64s(times)

	within := func(t float64) bool {
		vals := make([]float64, len(series))
		for i, s := range series {
			vals[i] = s.At(t)
		}
		m := Mean(vals)
		if m == 0 {
			m = 1
		}
		return (Max(vals)-Min(vals))/math.Abs(m) <= tol
	}

	// Find the earliest time from which every later sampling point is within
	// tolerance.
	best := math.Inf(1)
	ok := true
	for i := len(times) - 1; i >= 0; i-- {
		if within(times[i]) {
			if ok {
				best = times[i]
			}
		} else {
			ok = false
			break
		}
	}
	return best
}

// SeriesSet is a named collection of series, convenient for grouping the
// per-region RMTTF or f_i traces of one experiment run.
type SeriesSet struct {
	Name   string
	Series []*Series
}

// NewSeriesSet returns an empty set.
func NewSeriesSet(name string) *SeriesSet { return &SeriesSet{Name: name} }

// Add creates, registers and returns a new series with the given name.
func (ss *SeriesSet) Add(name string) *Series {
	s := NewSeries(name)
	ss.Series = append(ss.Series, s)
	return s
}

// Get returns the series with the given name, or nil.
func (ss *SeriesSet) Get(name string) *Series {
	for _, s := range ss.Series {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// Names returns the series names in registration order.
func (ss *SeriesSet) Names() []string {
	out := make([]string, len(ss.Series))
	for i, s := range ss.Series {
		out[i] = s.Name
	}
	return out
}

// Analyze runs AnalyzeConvergence over all series in the set.
func (ss *SeriesSet) Analyze(tailFrac, tol float64) ConvergenceReport {
	return AnalyzeConvergence(ss.Series, tailFrac, tol)
}

// String summarises the set (names and point counts).
func (ss *SeriesSet) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s:", ss.Name)
	for _, s := range ss.Series {
		fmt.Fprintf(&b, " %s(%d)", s.Name, s.Len())
	}
	return b.String()
}
