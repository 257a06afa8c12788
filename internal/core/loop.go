package core

import (
	"fmt"
)

// StepResult is the outcome of one complete control era.
type StepResult struct {
	// SmoothedRMTTF is RMTTF_i^t after applying equation (1).
	SmoothedRMTTF []float64
	// Fractions are the new workload fractions f_i^t decided by the policy.
	Fractions []float64
	// Plan is the forward plan realising the fractions given the entry
	// shares.
	Plan *ForwardPlan
}

// Loop is the leader-side closed control loop (Figure 2 of the paper): once
// per control era it folds the RMTTFs the regions report (Monitor) into the
// smoothed estimates (Analyze), asks the configured policy for new fractions
// (Plan), and produces the forward plan to be installed in every region
// (Execute).  It holds no goroutines and no clock: the acm package drives it
// from the simulation (or a wall-clock ticker in a real deployment).
type Loop struct {
	regions   []string
	policy    Policy
	agg       *Aggregator
	fractions []float64
	history   []StepResult
	keepHist  bool
}

// NewLoop builds a control loop over the named regions with the given policy
// and RMTTF smoothing factor beta.  The initial fractions are uniform, which
// is how a freshly deployed system behaves before the first control era.
func NewLoop(regions []string, policy Policy, beta float64) (*Loop, error) {
	if len(regions) == 0 {
		return nil, fmt.Errorf("core: control loop needs at least one region")
	}
	if policy == nil {
		return nil, fmt.Errorf("core: control loop needs a policy")
	}
	fr := make([]float64, len(regions))
	for i := range fr {
		fr[i] = 1 / float64(len(regions))
	}
	return &Loop{
		regions:   append([]string(nil), regions...),
		policy:    policy,
		agg:       NewAggregator(beta, regions),
		fractions: fr,
	}, nil
}

// SetKeepHistory controls whether every StepResult is retained (off by
// default).
func (l *Loop) SetKeepHistory(keep bool) { l.keepHist = keep }

// Fractions returns the currently installed workload fractions.
func (l *Loop) Fractions() []float64 { return append([]float64(nil), l.fractions...) }

// Aggregator exposes the smoothed RMTTF estimates.
func (l *Loop) Aggregator() *Aggregator { return l.agg }

// Step executes one complete control era: lastRMTTF holds the raw RMTTF each
// region's VMC just reported (Analyze), lambda is the current global request
// rate, and entryShares is the observed distribution of client arrivals over
// the regions (Execute needs it to build the forward plan).  It runs Analyze,
// Plan and Execute and returns the era's result.
func (l *Loop) Step(lastRMTTF []float64, lambda float64, entryShares []float64) (StepResult, error) {
	if len(lastRMTTF) != len(l.regions) {
		return StepResult{}, fmt.Errorf("core: Step got %d RMTTF values for %d regions", len(lastRMTTF), len(l.regions))
	}
	if len(entryShares) != len(l.regions) {
		return StepResult{}, fmt.Errorf("core: Step got %d entry shares for %d regions", len(entryShares), len(l.regions))
	}

	// Analyze: equation (1) at the leader for every region.
	smoothed := make([]float64, len(l.regions))
	for i, r := range l.regions {
		smoothed[i] = l.agg.Observe(r, lastRMTTF[i])
	}

	// Plan: Algorithm 2 — ask the policy for the new fractions.
	next, err := l.policy.Fractions(PolicyInput{
		Regions:       l.regions,
		RMTTF:         smoothed,
		PrevFractions: l.fractions,
		Lambda:        lambda,
	})
	if err != nil {
		return StepResult{}, fmt.Errorf("core: policy %s: %w", l.policy.Name(), err)
	}
	next = Normalize(next)

	// Execute: Algorithm 3 — build the forward plan that realises the
	// fractions given where clients actually connect.
	plan, err := BuildForwardPlan(l.regions, entryShares, next)
	if err != nil {
		return StepResult{}, err
	}

	l.fractions = next
	res := StepResult{
		SmoothedRMTTF: smoothed,
		Fractions:     append([]float64(nil), next...),
		Plan:          plan,
	}
	if l.keepHist {
		l.history = append(l.history, res)
	}
	return res, nil
}
