package stats

import "sort"

// P2Quantile estimates a single quantile of a stream in O(1) space using the
// P² algorithm of Jain & Chlamtac (CACM 1985): five markers track the
// minimum, the maximum, the target quantile and the two intermediate
// quantiles, and every observation nudges the middle markers toward their
// ideal positions with a piecewise-parabolic (hence P²) height update.
//
// The estimator is deterministic: its state after n observations is a pure
// function of the observation sequence, so feeding it from a fixed fold order
// keeps byte-reproducible reports reproducible.  The zero value is not ready
// for use; construct with NewP2Quantile.
type P2Quantile struct {
	p     float64    // target quantile in (0, 1)
	n     uint64     // observations seen
	q     [5]float64 // marker heights
	pos   [5]float64 // actual marker positions (1-based)
	want  [5]float64 // desired marker positions
	dwant [5]float64 // desired-position increments per observation
	init  [5]float64 // first five observations, until primed
}

// NewP2Quantile returns an estimator for quantile p, clamped to [0.01, 0.99]
// (the algorithm's markers degenerate at the extremes; use Min/Max for those).
func NewP2Quantile(p float64) *P2Quantile {
	if p < 0.01 {
		p = 0.01
	}
	if p > 0.99 {
		p = 0.99
	}
	e := &P2Quantile{p: p}
	e.want = [5]float64{1, 1 + 2*p, 1 + 4*p, 3 + 2*p, 5}
	e.dwant = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
	return e
}

// Add folds one observation into the estimate.
func (e *P2Quantile) Add(x float64) {
	if e.n < 5 {
		e.init[e.n] = x
		e.n++
		if e.n == 5 {
			sort.Float64s(e.init[:])
			copy(e.q[:], e.init[:])
			e.pos = [5]float64{1, 2, 3, 4, 5}
		}
		return
	}
	e.n++

	// Locate the cell x falls into and stretch the extreme markers.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x < e.q[1]:
		k = 0
	case x < e.q[2]:
		k = 1
	case x < e.q[3]:
		k = 2
	case x <= e.q[4]:
		k = 3
	default:
		e.q[4] = x
		k = 3
	}
	for i := k + 1; i < 5; i++ {
		e.pos[i]++
	}
	for i := range e.want {
		e.want[i] += e.dwant[i]
	}

	// Nudge the three middle markers toward their desired positions.
	for i := 1; i <= 3; i++ {
		d := e.want[i] - e.pos[i]
		if (d >= 1 && e.pos[i+1]-e.pos[i] > 1) || (d <= -1 && e.pos[i-1]-e.pos[i] < -1) {
			sign := 1.0
			if d < 0 {
				sign = -1.0
			}
			q := e.parabolic(i, sign)
			if e.q[i-1] < q && q < e.q[i+1] {
				e.q[i] = q
			} else {
				e.q[i] = e.linear(i, sign)
			}
			e.pos[i] += sign
		}
	}
}

// parabolic is the piecewise-parabolic (P²) height prediction for marker i
// moved by d (±1).
func (e *P2Quantile) parabolic(i int, d float64) float64 {
	return e.q[i] + d/(e.pos[i+1]-e.pos[i-1])*
		((e.pos[i]-e.pos[i-1]+d)*(e.q[i+1]-e.q[i])/(e.pos[i+1]-e.pos[i])+
			(e.pos[i+1]-e.pos[i]-d)*(e.q[i]-e.q[i-1])/(e.pos[i]-e.pos[i-1]))
}

// linear is the fallback linear height prediction for marker i moved by d.
func (e *P2Quantile) linear(i int, d float64) float64 {
	j := i + int(d)
	return e.q[i] + d*(e.q[j]-e.q[i])/(e.pos[j]-e.pos[i])
}

// Value returns the current quantile estimate.  Before five observations it
// falls back to the exact quantile of the samples seen so far (0 when empty).
func (e *P2Quantile) Value() float64 {
	if e.n == 0 {
		return 0
	}
	if e.n < 5 {
		xs := append([]float64(nil), e.init[:e.n]...)
		return Percentile(xs, e.p*100)
	}
	return e.q[2]
}
