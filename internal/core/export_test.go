package core

// EffectiveFractions returns the fraction of the global load each region
// serves under the plan: entry share times forwarding probability, summed
// over source regions.  The plan tests use it as the oracle that a plan
// realises its targets.
func (p *ForwardPlan) EffectiveFractions() []float64 {
	n := len(p.Regions)
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out[j] += p.EntryShares[i] * p.Forward[i][j]
		}
	}
	return out
}

// History returns the retained step results (empty unless SetKeepHistory(true)).
func (l *Loop) History() []StepResult { return append([]StepResult(nil), l.history...) }
