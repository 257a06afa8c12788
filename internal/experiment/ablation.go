package experiment

import (
	"fmt"

	"repro/internal/acm"
	"repro/internal/core"
	"repro/internal/simclock"
)

// The ablations the reproduction adds to the paper's per-policy comparison
// are job lists for the one sweep pipeline (RunSweep, RunSweepAndEmit).
// Each builder below reruns one scenario at its own seed and varies one knob
// per job, so the sweep isolates that knob.  The β and homogeneous-region
// ablations are Matrix sweeps (cmd/figures).

// ExplorationKJobs returns one Policy 3 job per scaling factor k of
// equations (6) and (8).
func ExplorationKJobs(sc Scenario, ks []float64) []Job {
	jobs := make([]Job, len(ks))
	for i, k := range ks {
		s := sc
		s.Name = fmt.Sprintf("%s-k%.2f", sc.Name, k)
		jobs[i] = Job{Index: i, Scenario: s, Policy: NamedPolicy{
			Key:    fmt.Sprintf("policy3-k%.2f", k),
			Label:  fmt.Sprintf("Policy 3 (k=%.2f)", k),
			Policy: &core.Exploration{K: k},
		}}
	}
	return jobs
}

// BaselineJobs returns Policy 2 and the non-adaptive baselines on the
// scenario: the uniform split and a static split proportional to each
// region's nominal compute capacity.  They quantify what MTTF-driven
// balancing buys over "reasonable" static configurations.
func BaselineJobs(sc Scenario) []Job {
	weights := make([]float64, len(sc.Regions))
	for i, rs := range sc.Regions {
		weights[i] = float64(rs.Region.InitialActive) * rs.Region.Type.RelativeSpeed()
	}
	return policyJobs(sc, []NamedPolicy{
		{Key: "policy2", Label: "Policy 2 (available resources)", Policy: core.AvailableResources{}},
		{Key: "uniform", Label: "Uniform baseline", Policy: core.Uniform{}},
		{Key: "static", Label: "Static capacity-proportional baseline", Policy: core.Static{Weights: weights}},
	})
}

// PredictorJobs returns the scenario under the policy with the oracle
// predictor and with the trained F2PM model, quantifying the cost of
// prediction error (an ablation the paper's companion works motivate).
func PredictorJobs(sc Scenario, np NamedPolicy) []Job {
	modes := []struct {
		key  string
		mode acm.PredictorMode
	}{{"oracle", acm.PredictorOracle}, {"ml", acm.PredictorML}}
	jobs := make([]Job, len(modes))
	for i, mode := range modes {
		s := sc
		s.Predictor = mode.mode
		s.Name = fmt.Sprintf("%s-%s", sc.Name, mode.key)
		jobs[i] = Job{Index: i, Scenario: s, Policy: np}
	}
	return jobs
}

// GossipIntervalJobs returns the gossip scenario once per gossip round
// period: the convergence-lag-versus-message-cost trade-off, where halving
// the interval halves the mean propagation lag but doubles the gossip
// traffic.  One replica never gossips, so the scenario needs two or more;
// an interval must be positive, since the fill would turn a 0 into 10 s.
func GossipIntervalJobs(sc Scenario, np NamedPolicy, intervals []simclock.Duration) ([]Job, error) {
	if sc.GossipReplicas < 2 {
		return nil, fmt.Errorf("experiment: gossip sweep needs a gossip scenario (GossipReplicas >= 2), got %q with %d", sc.Name, sc.GossipReplicas)
	}
	jobs := make([]Job, len(intervals))
	for i, interval := range intervals {
		if interval <= 0 {
			return nil, fmt.Errorf("experiment: gossip interval %v must be positive", interval)
		}
		s := sc
		s.GossipInterval = interval
		s.Name = fmt.Sprintf("%s-gossip%.0fs", sc.Name, interval.Seconds())
		jobs[i] = Job{Index: i, Scenario: s, Policy: np}
	}
	return jobs, nil
}
