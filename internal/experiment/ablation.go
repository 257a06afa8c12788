package experiment

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/acm"
	"repro/internal/core"
	"repro/internal/simclock"
)

// AblationPoint is one row of an ablation sweep: the value of the swept
// parameter and the summary metrics of the corresponding run.
type AblationPoint struct {
	// Parameter names the swept knob ("beta", "k", "policy", ...).
	Parameter string
	// Value is the numeric value of the knob (0 when the knob is categorical;
	// see Label).
	Value float64
	// Label is the human-readable value (used for categorical knobs).
	Label string
	// Converged, Spread and ConvergenceTime summarise RMTTF convergence.
	Converged       bool
	Spread          float64
	ConvergenceTime float64
	// FractionOscillation is the tail oscillation of the workload fractions.
	FractionOscillation float64
	// MeanResponseTime is the mean client response time in seconds.
	MeanResponseTime float64
	// CrossRegionFraction is the fraction of requests forwarded between
	// regions (redirection overhead).
	CrossRegionFraction float64
}

func pointFromResult(param string, value float64, label string, r *Result) AblationPoint {
	return AblationPoint{
		Parameter:           param,
		Value:               value,
		Label:               label,
		Converged:           r.RMTTFConvergence.Converged,
		Spread:              r.RMTTFConvergence.RelativeSpread,
		ConvergenceTime:     r.RMTTFConvergence.ConvergenceTime,
		FractionOscillation: r.FractionOscillation,
		MeanResponseTime:    r.MeanResponseTime,
		CrossRegionFraction: r.ForwardedFraction,
	}
}

// BetaSweep reruns the scenario under the given policy for each smoothing
// factor β of equation (1), one parallel job per β.  The paper fixes β
// implicitly; the sweep shows how much the convergence behaviour depends on
// it.  Every point uses the scenario's own seed, so the sweep isolates β.
// An optional Options bounds the worker pool (GOMAXPROCS otherwise).
func BetaSweep(sc Scenario, np NamedPolicy, betas []float64, opt ...Options) ([]AblationPoint, error) {
	jobs := make([]Job, len(betas))
	for i, beta := range betas {
		if err := ValidateBeta(beta); err != nil {
			return nil, err
		}
		s := sc
		s.Beta = beta
		s.Name = fmt.Sprintf("%s-beta%.2f", sc.Name, beta)
		jobs[i] = Job{Index: i, Scenario: s, Policy: np}
	}
	return ablationPoints(jobs, firstOption(opt), func(i int, r *Result) AblationPoint {
		return pointFromResult("beta", betas[i], fmt.Sprintf("β=%.2f", betas[i]), r)
	})
}

// ExplorationKSweep reruns the scenario under Policy 3 for each scaling
// factor k of equations (6) and (8), one parallel job per k.
func ExplorationKSweep(sc Scenario, ks []float64, opt ...Options) ([]AblationPoint, error) {
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
	return ablationPoints(jobs, firstOption(opt), func(i int, r *Result) AblationPoint {
		return pointFromResult("k", ks[i], fmt.Sprintf("k=%.2f", ks[i]), r)
	})
}

// firstOption unwraps the optional trailing Options of the sweep helpers.
func firstOption(opt []Options) Options {
	if len(opt) > 0 {
		return opt[0]
	}
	return Options{}
}

// ablationPoints runs the jobs on the parallel runner and converts each
// result into its sweep point, preserving job order.  The first failure
// aborts the sweep, matching the previous sequential behaviour.
func ablationPoints(jobs []Job, opt Options, point func(i int, r *Result) AblationPoint) ([]AblationPoint, error) {
	results, err := RunParallel(context.Background(), jobs, opt)
	if err != nil {
		return nil, err
	}
	out := make([]AblationPoint, len(results))
	for i, jr := range results {
		if jr.Err != nil {
			return nil, jr.Err
		}
		out[i] = point(i, jr.Result)
	}
	return out, nil
}

// GossipPoint is one row of the gossip-interval sweep: how fast the
// replicated health plane converges (and what routing quality costs) at one
// gossip round period.
type GossipPoint struct {
	// Interval is the swept gossip round period.
	Interval simclock.Duration
	// Rounds, Sent, Delivered and Dropped are the plane's protocol counters
	// over the whole run.
	Rounds    uint64
	Sent      uint64
	Delivered uint64
	Dropped   uint64
	// MeanLagSeconds is the mean time from an owner bumping a region's health
	// version to every replica holding that (or a newer) version — the
	// plane's convergence time at this interval.
	MeanLagSeconds float64
	// MaxDivergence is the final per-region version gap between the owner and
	// the most stale replica.
	MaxDivergence uint64
	// SuccessRatio and MeanResponseTime show what stale views cost clients.
	SuccessRatio     float64
	MeanResponseTime float64
}

// GossipIntervalSweep reruns a gossip scenario once per gossip round period,
// one parallel job per interval, quantifying the convergence-lag-versus-
// message-cost trade-off: halving the interval halves the mean propagation
// lag but doubles the gossip traffic.  Every point uses the scenario's own
// seed, so the sweep isolates the interval.
func GossipIntervalSweep(sc Scenario, np NamedPolicy, intervals []simclock.Duration, opt ...Options) ([]GossipPoint, error) {
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
	results, err := RunParallel(context.Background(), jobs, firstOption(opt))
	if err != nil {
		return nil, err
	}
	out := make([]GossipPoint, len(results))
	for i, jr := range results {
		if jr.Err != nil {
			return nil, jr.Err
		}
		r := jr.Result
		if r.Gossip == nil {
			return nil, fmt.Errorf("experiment: %s recorded no gossip stats", jr.Job.Scenario.Name)
		}
		out[i] = GossipPoint{
			Interval:         intervals[i],
			Rounds:           r.Gossip.Rounds,
			Sent:             r.Gossip.Sent,
			Delivered:        r.Gossip.Delivered,
			Dropped:          r.Gossip.Dropped,
			MeanLagSeconds:   r.Gossip.MeanLagSeconds,
			MaxDivergence:    r.Gossip.MaxDivergence,
			SuccessRatio:     r.SuccessRatio,
			MeanResponseTime: r.MeanResponseTime,
		}
	}
	return out, nil
}

// GossipSweepTable renders gossip-interval sweep points as an aligned text
// table: convergence lag against message cost, one row per interval.
func GossipSweepTable(points []GossipPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-10s %7s %7s %10s %8s %11s %11s %9s %10s\n",
		"interval", "rounds", "sent", "delivered", "dropped", "meanLag(s)", "divergence", "success", "meanRT(s)")
	for _, p := range points {
		fmt.Fprintf(&b, "%-10s %7d %7d %10d %8d %11.1f %11d %9.4f %10.3f\n",
			fmt.Sprintf("%.0fs", p.Interval.Seconds()), p.Rounds, p.Sent, p.Delivered, p.Dropped,
			p.MeanLagSeconds, p.MaxDivergence, p.SuccessRatio, p.MeanResponseTime)
	}
	return b.String()
}

// BaselineComparison runs Policy 2 against the non-adaptive baselines: the
// uniform split and a static split proportional to each region's nominal
// compute capacity.  It quantifies what MTTF-driven balancing buys over
// "reasonable" static configurations.
func BaselineComparison(sc Scenario, opt ...Options) (map[string]*Result, error) {
	sc = sc.withDefaults()
	weights := make([]float64, len(sc.Regions))
	for i, rs := range sc.Regions {
		weights[i] = float64(rs.Region.InitialActive) * rs.Region.Type.RelativeSpeed()
	}
	candidates := []NamedPolicy{
		{Key: "policy2", Label: "Policy 2 (available resources)", Policy: core.AvailableResources{}},
		{Key: "uniform", Label: "Uniform baseline", Policy: core.Uniform{}},
		{Key: "static", Label: "Static capacity-proportional baseline", Policy: core.Static{Weights: weights}},
	}
	return RunPolicies(context.Background(), sc, candidates, firstOption(opt))
}

// PredictorComparison runs the same scenario and policy with the oracle
// predictor and with the trained F2PM model, quantifying the cost of
// prediction error (an ablation the paper's companion works motivate).
func PredictorComparison(sc Scenario, np NamedPolicy, opt ...Options) (map[string]*Result, error) {
	sc = sc.withDefaults()
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
	results, err := RunParallel(context.Background(), jobs, firstOption(opt))
	if err != nil {
		return nil, err
	}
	out := map[string]*Result{}
	for i, jr := range results {
		if jr.Err != nil {
			return nil, jr.Err
		}
		out[modes[i].key] = jr.Result
	}
	return out, nil
}

// AblationTable renders ablation points as an aligned text table.
func AblationTable(points []AblationPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-12s %9s %9s %11s %12s %10s %10s\n",
		"value", "converged", "spread", "convTime", "fOscillation", "meanRT(s)", "crossRegion")
	for _, p := range points {
		conv := "no"
		if p.Converged {
			conv = "yes"
		}
		convTime := "never"
		if p.Converged {
			if math.IsInf(p.ConvergenceTime, 1) {
				convTime = "n/a"
			} else {
				convTime = fmt.Sprintf("%.0fs", p.ConvergenceTime)
			}
		}
		label := p.Label
		if label == "" {
			label = fmt.Sprintf("%s=%.2f", p.Parameter, p.Value)
		}
		fmt.Fprintf(&b, "%-12s %9s %9.3f %11s %12.4f %10.3f %10.4f\n",
			label, conv, p.Spread, convTime, p.FractionOscillation, p.MeanResponseTime, p.CrossRegionFraction)
	}
	return b.String()
}
