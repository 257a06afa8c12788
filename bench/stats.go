package main

import (
	"math"
	"sort"
)

// summary is the distribution of one end-to-end metric over the ops of a
// run.  With a handful of ops no tail percentile has ten samples beyond it,
// so the quartiles are the only spread reported.
type summary struct {
	Unit   string    `json:"unit"`
	Median float64   `json:"median"`
	P25    float64   `json:"p25"`
	P75    float64   `json:"p75"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(unit string, values []float64) summary {
	s := summary{Unit: unit, N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	s.P25, s.Median, s.P75 = quartiles(values)
	return s
}

// quartiles returns the first quartile, median and third quartile by the
// exclusive method of Python's statistics.quantiles(values, n=4), so the
// spreads printed here match the ones the benchmark's acceptance check
// computes.
func quartiles(values []float64) (p25, p50, p75 float64) {
	d := append([]float64(nil), values...)
	sort.Float64s(d)
	n := len(d)
	if n == 1 {
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}

func mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	total := 0.0
	for _, v := range values {
		total += v
	}
	return total / float64(len(values))
}

// spread is the interquartile range as a share of the median.
func (s summary) spread() float64 {
	if s.P75 == s.P25 {
		return 0
	}
	return (s.P75 - s.P25) / math.Abs(s.Median)
}

// Verdicts of one (metric, workload) comparison.
const (
	verdictSame       = "same"
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// verdict compares a candidate run b against a baseline run a.  worseBy is
// the candidate median's change as a share of the baseline median, positive
// when worse.  A change beyond the bound is better or worse; when either
// side's interquartile spread exceeds the bound the comparison is unresolved
// unless every run of one side beats every run of the other.
func verdict(a, b summary, lowerIsBetter bool, bound float64) string {
	worseBy := (b.Median - a.Median) / math.Abs(a.Median)
	if !lowerIsBetter {
		worseBy = -worseBy
	}
	beats := func(x, y summary) bool { // every run of x beats every run of y
		for _, xv := range x.Values {
			for _, yv := range y.Values {
				if (lowerIsBetter && xv >= yv) || (!lowerIsBetter && xv <= yv) {
					return false
				}
			}
		}
		return len(x.Values) > 0 && len(y.Values) > 0
	}
	switch {
	case worseBy > bound && (beats(a, b) || a.spread() <= bound && b.spread() <= bound):
		return verdictWorse
	case -worseBy > bound && (beats(b, a) || a.spread() <= bound && b.spread() <= bound):
		return verdictBetter
	case a.spread() > bound || b.spread() > bound:
		if beats(a, b) || beats(b, a) {
			return verdictSame
		}
		return verdictUnresolved
	}
	return verdictSame
}
