package experiment

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/acm"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/simclock"
	"repro/internal/stats"
	"repro/internal/workload"
)

// quickScenario is a reduced two-region scenario for fast unit tests: fewer
// clients and a short horizon, but the same structure as Figure 3.
func quickScenario(seed uint64) Scenario {
	return Scenario{
		Name:    "quick",
		Horizon: 40 * simclock.Minute,
		Config: acm.Config{
			Seed: seed,
			Regions: []acm.RegionSetup{
				{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: 150, Mix: workload.BrowsingMix()},
				{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: 64, Mix: workload.BrowsingMix()},
			},
			ControlInterval: 60 * simclock.Second,
		},
	}.withDefaults()
}

func TestScenarioDefaults(t *testing.T) {
	sc := Scenario{Name: "x", Config: acm.Config{Regions: Figure3Scenario(1).Regions}}.withDefaults()
	if sc.Horizon != 2*simclock.Hour || sc.ControlInterval != 60*simclock.Second {
		t.Fatalf("unexpected defaults: %+v", sc)
	}
	if sc.Beta != 0.5 || sc.TailFraction != 0.4 || sc.ConvergenceTolerance != 0.3 {
		t.Fatalf("unexpected defaults: %+v", sc)
	}
	if sc.Predictor != acm.PredictorOracle {
		t.Fatalf("default predictor should be the oracle")
	}
}

func TestPaperScenarios(t *testing.T) {
	f3 := Figure3Scenario(42)
	if len(f3.Regions) != 2 {
		t.Fatalf("figure 3 uses two regions, got %d", len(f3.Regions))
	}
	if got := f3.RegionNames(); got[0] != "region1" || got[1] != "region3" {
		t.Fatalf("figure 3 regions = %v, want region1 and region3 (Ireland + Munich)", got)
	}
	f4 := Figure4Scenario(42)
	if len(f4.Regions) != 3 {
		t.Fatalf("figure 4 uses three regions, got %d", len(f4.Regions))
	}
	// Client populations must differ significantly between regions and stay
	// within the paper's [16, 512] range.
	for _, sc := range []Scenario{f3, f4} {
		counts := map[int]bool{}
		for _, r := range sc.Regions {
			if r.Clients < 16 || r.Clients > 512 {
				t.Errorf("%s: %d clients outside the paper's [16,512] range", sc.Name, r.Clients)
			}
			counts[r.Clients] = true
		}
		if len(counts) < 2 {
			t.Errorf("%s: client populations should differ between regions", sc.Name)
		}
		if sc.TotalClients() <= 0 {
			t.Errorf("%s: total clients must be positive", sc.Name)
		}
	}
	hom := HomogeneousScenario(42)
	if len(hom.Regions) != 3 {
		t.Fatalf("homogeneous scenario should have three regions")
	}
	first := hom.Regions[0]
	for _, r := range hom.Regions[1:] {
		if r.Region.Type.Name != first.Region.Type.Name || r.Clients != first.Clients {
			t.Fatalf("homogeneous scenario regions should be identical")
		}
	}
}

func TestPoliciesAndPolicyByKey(t *testing.T) {
	ps := Policies()
	if len(ps) != 3 {
		t.Fatalf("the paper evaluates three policies, got %d", len(ps))
	}
	if ps[0].Key != "policy1" || ps[1].Key != "policy2" || ps[2].Key != "policy3" {
		t.Fatalf("policy order wrong: %+v", ps)
	}
	for _, key := range []string{"policy1", "policy2", "policy3", "uniform"} {
		np, err := PolicyByKey(key)
		if err != nil {
			t.Errorf("PolicyByKey(%q): %v", key, err)
			continue
		}
		if np.Policy == nil {
			t.Errorf("PolicyByKey(%q) returned nil policy", key)
		}
	}
	if _, err := PolicyByKey("nope"); err == nil {
		t.Fatalf("unknown key should fail")
	}
}

func TestRunProducesCompleteResult(t *testing.T) {
	res, err := Run(quickScenario(3), NamedPolicy{Key: "policy2", Label: "Policy 2", Policy: core.AvailableResources{}})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.PolicyKey != "policy2" || res.Recorder == nil {
		t.Fatalf("result incomplete: %+v", res)
	}
	if res.Eras < 30 {
		t.Fatalf("eras = %d, want ~40", res.Eras)
	}
	if res.MeanResponseTime <= 0 || res.MeanResponseTime > 1 {
		t.Fatalf("mean response time = %v, want positive and under the SLA", res.MeanResponseTime)
	}
	if res.SuccessRatio < 0.95 {
		t.Fatalf("success ratio = %v", res.SuccessRatio)
	}
	if len(res.FinalFractions) != 2 {
		t.Fatalf("final fractions = %v", res.FinalFractions)
	}
	if s := res.FinalFractions[0] + res.FinalFractions[1]; math.Abs(s-1) > 1e-9 {
		t.Fatalf("final fractions sum to %v", s)
	}
	if res.Recorder.Series("rmttf", "region1").Len() == 0 {
		t.Fatalf("rmttf series missing")
	}
	if res.TailResponseTime <= 0 {
		t.Fatalf("tail response time missing")
	}
	// Rendering helpers work on a real result.
	if rep := FigureReport(res); !strings.Contains(rep, "RMTTF per region") || !strings.Contains(rep, "workload fraction") {
		t.Fatalf("figure report incomplete:\n%s", rep)
	}
}

func TestRunRejectsBrokenScenario(t *testing.T) {
	sc := quickScenario(1)
	sc.Regions = nil
	if _, err := Run(sc, NamedPolicy{Key: "p", Label: "p", Policy: core.Uniform{}}); err == nil {
		t.Fatalf("a scenario with no regions should fail")
	}
}

func TestEvaluateClaimsLogic(t *testing.T) {
	mk := func(converged bool, convTime, spread, rt float64) *Result {
		return &Result{
			RMTTFConvergence: stats.ConvergenceReport{
				Converged:       converged,
				ConvergenceTime: convTime,
				RelativeSpread:  spread,
			},
			MeanResponseTime: rt,
		}
	}
	// The expected paper shape.
	good := map[string]*Result{
		"policy1": mk(false, math.Inf(1), 0.8, 0.3),
		"policy2": mk(true, 1200, 0.01, 0.25),
		"policy3": mk(true, 2400, 0.06, 0.28),
	}
	c := EvaluateClaims(good)
	if !c.AllHold() {
		t.Fatalf("claims should all hold for the expected shape:\n%s", c)
	}
	if !strings.Contains(c.String(), "ok") {
		t.Fatalf("claims string should mark passing rows")
	}

	// Policy 2 much slower than policy 3: the speed claim fails.
	slow := map[string]*Result{
		"policy1": mk(false, math.Inf(1), 0.8, 0.3),
		"policy2": mk(true, 4000, 0.01, 0.25),
		"policy3": mk(true, 1000, 0.06, 0.28),
	}
	if EvaluateClaims(slow).Policy2AtLeastAsFastAsPolicy3 {
		t.Fatalf("speed claim should fail when policy 3 converges much earlier")
	}
	// Policy 2 with a looser steady-state spread than policy 3: the tightest-
	// convergence claim fails.
	loose := map[string]*Result{
		"policy1": mk(false, math.Inf(1), 0.8, 0.3),
		"policy2": mk(true, 1200, 0.2, 0.25),
		"policy3": mk(true, 2400, 0.05, 0.28),
	}
	if EvaluateClaims(loose).Policy2TightestConvergence {
		t.Fatalf("tightest-convergence claim should fail when policy 3 ends tighter")
	}
	// SLA violated by one policy.
	hot := map[string]*Result{
		"policy1": mk(false, math.Inf(1), 0.8, 1.8),
		"policy2": mk(true, 1200, 0.01, 0.25),
		"policy3": mk(true, 2400, 0.06, 0.28),
	}
	if EvaluateClaims(hot).AllPoliciesMeetSLA {
		t.Fatalf("SLA claim should fail when a policy exceeds 1 s")
	}
	// Missing policy results yield all-false claims.
	if EvaluateClaims(map[string]*Result{"policy1": mk(false, 0, 0, 0)}).AllHold() {
		t.Fatalf("incomplete result sets cannot satisfy the claims")
	}
}

func TestSummaryAndAblationTables(t *testing.T) {
	res := map[string]*Result{
		"policy1": {PolicyKey: "policy1", RMTTFConvergence: stats.ConvergenceReport{Converged: false, RelativeSpread: 0.7, ConvergenceTime: math.Inf(1)}, FractionOscillation: 0.06, MeanResponseTime: 0.3},
		"policy2": {PolicyKey: "policy2", RMTTFConvergence: stats.ConvergenceReport{Converged: true, RelativeSpread: 0.05, ConvergenceTime: 1300}, FractionOscillation: 0.03, MeanResponseTime: 0.2},
	}
	tbl := SummaryTable(res)
	if !strings.Contains(tbl, "policy1") || !strings.Contains(tbl, "never") || !strings.Contains(tbl, "1300s") {
		t.Fatalf("summary table incomplete:\n%s", tbl)
	}
	// The ablations print the sweep table: its convergence column tells a
	// known time, a converged run without one, and a run that never
	// converged apart, and the dependability and gossip columns carry the
	// row's values.
	rows := []SweepRow{
		{Scenario: "quick-beta0.20", Policy: "policy2", Beta: 0.2, Converged: true, ConvergenceTime: 900, RelativeSpread: 0.1,
			ProactiveRejuvenations: 17, Crashes: 3, GossipMeanLagSeconds: 13.3, GossipSent: 1077, GossipMaxDivergence: 2},
		{Scenario: "quick-k1.25", Policy: "policy3-k1.25", Beta: 0.5, Converged: true, ConvergenceTime: -1, RelativeSpread: 0.3},
		{Scenario: "quick-beta0.80", Policy: "policy2", Beta: 0.8, ConvergenceTime: -1, RelativeSpread: 0.5},
		{Scenario: "quick-ml", Policy: "policy2", Err: "boom"},
	}
	lines := strings.Split(strings.TrimSpace(SweepTable(rows)), "\n")
	if len(lines) != 1+len(rows) {
		t.Fatalf("sweep table has %d lines, want a header and %d rows:\n%s", len(lines), len(rows), strings.Join(lines, "\n"))
	}
	for i, want := range [][]string{
		{"quick-beta0.20", "0.20", "yes", "900s", "17", "3", "13.3", "1077"},
		{"quick-k1.25", "policy3-k1.25", "yes", "n/a"},
		{"quick-beta0.80", "no", "never"},
		{"quick-ml", "ERROR: boom"},
	} {
		for _, field := range want {
			if !strings.Contains(lines[1+i], field) {
				t.Errorf("sweep table row %d lacks %q: %s", i, field, lines[1+i])
			}
		}
	}
}

// rowsByPolicy runs the jobs through the sweep pipeline and keys the rows
// by policy, failing on any job error.
func rowsByPolicy(t *testing.T, jobs []Job) map[string]SweepRow {
	t.Helper()
	rows, err := RunSweep(context.Background(), jobs, Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]SweepRow{}
	for _, r := range rows {
		if r.Err != "" {
			t.Fatalf("%s/%s: %s", r.Scenario, r.Policy, r.Err)
		}
		out[r.Policy] = r
	}
	return out
}

// TestBetaSweepAndKSweep: the β ablation is a Matrix over β and the k
// ablation a job list over k; both run through the sweep pipeline and
// report the swept value in every row.
func TestBetaSweepAndKSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps run multiple simulations")
	}
	jobs, err := Matrix{Scenarios: []string{"figure3"}, Policies: []string{"policy2"}, Betas: []float64{0.2, 0.8},
		BaseSeed: 5, Horizon: 25 * simclock.Minute}.Expand()
	if err != nil {
		t.Fatal(err)
	}
	rows, err := RunSweep(context.Background(), jobs, Options{}, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Beta != 0.2 || rows[1].Beta != 0.8 {
		t.Fatalf("unexpected β sweep rows: %+v", rows)
	}
	for _, r := range rows {
		if r.MeanResponseTime <= 0 || r.Err != "" {
			t.Fatalf("β sweep row missing metrics: %+v", r)
		}
	}
	sc := quickScenario(5)
	sc.Horizon = 25 * simclock.Minute
	k := rowsByPolicy(t, ExplorationKJobs(sc, []float64{1.0}))
	if r, ok := k["policy3-k1.00"]; len(k) != 1 || !ok || r.Scenario != "quick-k1.00" || r.MeanResponseTime <= 0 {
		t.Fatalf("unexpected k sweep rows: %+v", k)
	}
}

func TestBaselineComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline comparison runs multiple simulations")
	}
	sc := quickScenario(9)
	sc.Horizon = 25 * simclock.Minute
	res := rowsByPolicy(t, BaselineJobs(sc))
	for _, key := range []string{"policy2", "uniform", "static"} {
		if _, ok := res[key]; !ok {
			t.Fatalf("baseline comparison missing %q", key)
		}
	}
	// The uniform baseline ignores heterogeneity, so the small region ends up
	// with a worse (lower) RMTTF spread than under policy 2.
	if res["uniform"].RelativeSpread <= res["policy2"].RelativeSpread {
		t.Fatalf("uniform baseline should show a larger RMTTF spread than policy 2: uniform=%v policy2=%v",
			res["uniform"].RelativeSpread, res["policy2"].RelativeSpread)
	}
}

// TestFigure3QualitativeClaims and TestFigure4QualitativeClaims are the E3
// experiment of the reproduction: they assert that the shape reported in
// Section VI-B of the paper emerges from the simulated deployment.
func TestFigure3QualitativeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure-3 scenario is slow")
	}
	sc := Figure3Scenario(42)
	sc.Horizon = 90 * simclock.Minute
	results, err := RunPolicies(context.Background(), sc, Policies(), Options{})
	if err != nil {
		t.Fatalf("RunPolicies: %v", err)
	}
	claims := EvaluateClaims(results)
	if !claims.Policy1DoesNotConverge {
		t.Errorf("policy 1 should not converge on heterogeneous regions:\n%s", SummaryTable(results))
	}
	if !claims.Policy2Converges {
		t.Errorf("policy 2 should converge:\n%s", SummaryTable(results))
	}
	if !claims.AllPoliciesMeetSLA {
		t.Errorf("mean response time should stay below the 1 s SLA:\n%s", SummaryTable(results))
	}
	if results["policy2"].RMTTFConvergence.RelativeSpread >= results["policy1"].RMTTFConvergence.RelativeSpread {
		t.Errorf("policy 2 should end with a much smaller RMTTF spread than policy 1")
	}
}

func TestFigure4QualitativeClaims(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure-4 scenario is slow")
	}
	sc := Figure4Scenario(42)
	sc.Horizon = 90 * simclock.Minute
	results, err := RunPolicies(context.Background(), sc, Policies(), Options{})
	if err != nil {
		t.Fatalf("RunPolicies: %v", err)
	}
	claims := EvaluateClaims(results)
	if !claims.Policy1DoesNotConverge || !claims.Policy2Converges {
		t.Errorf("three-region claims failed:\n%s\n%s", SummaryTable(results), claims)
	}
	if !claims.AllPoliciesMeetSLA {
		t.Errorf("mean response time should stay below the 1 s SLA:\n%s", SummaryTable(results))
	}
}

// TestPaperClaimsRobustAcrossSeeds is the seed-ensemble gate of the paper's
// figures: on every figure/seed pair (seeds 1-10, 30 minutes) policy 1 does
// not converge, policy 2 converges and every policy meets the SLA.  The
// ordering claims (policy 2 tightest, policy 2 as fast as policy 3) flip on
// a third of the seeds, so they are logged, not asserted.
func TestPaperClaimsRobustAcrossSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs sixty 30-minute simulations")
	}
	for _, fig := range []string{"figure3", "figure4"} {
		allHold := 0
		for seed := uint64(1); seed <= 10; seed++ {
			sc, err := BuildScenario(fig, seed)
			if err != nil {
				t.Fatal(err)
			}
			sc.Horizon = 30 * simclock.Minute
			results, err := RunPolicies(context.Background(), sc, Policies(), Options{})
			if err != nil {
				t.Fatalf("%s seed %d: %v", fig, seed, err)
			}
			c := EvaluateClaims(results)
			if !c.Policy1DoesNotConverge || !c.Policy2Converges || !c.AllPoliciesMeetSLA {
				t.Errorf("%s seed %d: robust claims failed:\n%s\n%s", fig, seed, SummaryTable(results), c)
			}
			if c.AllHold() {
				allHold++
			} else {
				t.Logf("%s seed %d: policy 2 tightest %v, policy 2 as fast as policy 3 %v",
					fig, seed, c.Policy2TightestConvergence, c.Policy2AtLeastAsFastAsPolicy3)
			}
		}
		t.Logf("%s: every claim held on %d of 10 seeds", fig, allHold)
	}
}

func BenchmarkQuickScenarioPolicy2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := quickScenario(uint64(i) + 1)
		sc.Horizon = 20 * simclock.Minute
		if _, err := Run(sc, NamedPolicy{Key: "policy2", Label: "Policy 2", Policy: core.AvailableResources{}}); err != nil {
			b.Fatal(err)
		}
	}
}
