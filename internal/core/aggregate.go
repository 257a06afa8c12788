package core

import (
	"fmt"
	"sort"

	"repro/internal/stats"
)

// Aggregator maintains, at the leader VMC, the smoothed Region Mean Time To
// Failure of every region according to equation (1) of the paper:
//
//	RMTTF_i^t = (1-β) · RMTTF_i^{t-1} + β · lastRMTTF_i
//
// where lastRMTTF_i is the latest average MTTF the region's VMC reported for
// its active VMs.
type Aggregator struct {
	beta    float64
	regions []string
	ewma    map[string]*stats.EWMA
}

// NewAggregator builds an aggregator over the named regions with smoothing
// factor beta (clamped to [0,1], as the paper requires 0 ≤ β ≤ 1).
func NewAggregator(beta float64, regions []string) *Aggregator {
	a := &Aggregator{beta: beta, regions: append([]string(nil), regions...), ewma: map[string]*stats.EWMA{}}
	for _, r := range regions {
		a.ewma[r] = stats.NewEWMA(beta)
	}
	return a
}

// Observe folds the lastRMTTF reported by a region into its smoothed value
// and returns the new current RMTTF.  Observing an unknown region registers
// it.
func (a *Aggregator) Observe(region string, lastRMTTF float64) float64 {
	e, ok := a.ewma[region]
	if !ok {
		e = stats.NewEWMA(a.beta)
		a.ewma[region] = e
		a.regions = append(a.regions, region)
	}
	return e.Update(lastRMTTF)
}

// Current returns the smoothed RMTTF of a region (0 before any observation).
func (a *Aggregator) Current(region string) float64 {
	if e, ok := a.ewma[region]; ok {
		return e.Value()
	}
	return 0
}

// String renders the aggregator state sorted by region name.
func (a *Aggregator) String() string {
	names := append([]string(nil), a.regions...)
	sort.Strings(names)
	s := ""
	for i, r := range names {
		if i > 0 {
			s += " "
		}
		s += fmt.Sprintf("%s=%.0fs", r, a.ewma[r].Value())
	}
	return s
}
