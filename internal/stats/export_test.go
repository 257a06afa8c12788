package stats

import "math"

// CoefficientOfVariation returns the standard deviation divided by the mean,
// a scale-free measure of dispersion.  Returns 0 when the mean is 0.
func CoefficientOfVariation(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(m)
}

// Reset clears the average.
func (e *EWMA) Reset() {
	e.value = 0
	e.primed = false
}
