package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestAggregatorEquation1(t *testing.T) {
	a := NewAggregator(0.25, []string{"r1", "r2"})
	if a.beta != 0.25 {
		t.Fatalf("beta = %v", a.beta)
	}
	// First observation primes the estimate directly.
	if got := a.Observe("r1", 1000); got != 1000 {
		t.Fatalf("first observation = %v, want 1000", got)
	}
	// Second observation applies (1-β)*prev + β*last.
	if got := a.Observe("r1", 2000); math.Abs(got-(0.75*1000+0.25*2000)) > 1e-9 {
		t.Fatalf("second observation = %v, want 1250", got)
	}
	if got := a.Current("r1"); math.Abs(got-1250) > 1e-9 {
		t.Fatalf("Current = %v", got)
	}
	if a.Current("r2") != 0 {
		t.Fatalf("unobserved region should read 0")
	}
	if a.Current("nope") != 0 {
		t.Fatalf("unknown region should read 0")
	}
}

func TestAggregatorAutoRegistersAndSnapshots(t *testing.T) {
	a := NewAggregator(0.5, []string{"r1"})
	a.Observe("r1", 100)
	a.Observe("brand-new", 300)
	if len(a.regions) != 2 {
		t.Fatalf("regions = %v", a.regions)
	}
	if a.Current("r1") != 100 || a.Current("brand-new") != 300 {
		t.Fatalf("estimates = %v", a)
	}
	if !strings.Contains(a.String(), "r1=") {
		t.Fatalf("String() = %q", a.String())
	}
}

func TestAggregatorBetaClamped(t *testing.T) {
	a := NewAggregator(7, []string{"r"})
	a.Observe("r", 10)
	a.Observe("r", 20)
	// beta clamps to 1: the estimate tracks the last observation exactly.
	if got := a.Current("r"); got != 20 {
		t.Fatalf("with beta clamped to 1 the estimate should equal the last sample, got %v", got)
	}
}

func TestBuildForwardPlanKeepsTrafficLocalWhenPossible(t *testing.T) {
	regions := []string{"region1", "region2", "region3"}
	entry := []float64{0.3, 0.4, 0.3}
	target := []float64{0.5, 0.4, 0.1}
	p, err := BuildForwardPlan(regions, entry, target)
	if err != nil {
		t.Fatalf("BuildForwardPlan: %v", err)
	}
	// Rows must be distributions.
	for i, row := range p.Forward {
		s := 0.0
		for _, v := range row {
			if v < 0 {
				t.Fatalf("negative forwarding fraction in row %d: %v", i, row)
			}
			s += v
		}
		if math.Abs(s-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	// Region 2's entry share equals its target: everything stays local.
	if p.Forward[1][1] < 0.999 {
		t.Fatalf("region2 should keep all its traffic local, row = %v", p.Forward[1])
	}
	// Region 3 is over-subscribed (entry 0.3 > target 0.1): it forwards the
	// surplus, and only to region 1 (the only region with a deficit).
	if p.Forward[2][0] <= 0 || p.Forward[2][1] != 0 {
		t.Fatalf("region3 should forward surplus to region1 only, row = %v", p.Forward[2])
	}
	// The plan must realise the requested fractions.
	eff := p.EffectiveFractions()
	for i := range target {
		if math.Abs(eff[i]-target[i]) > 1e-6 {
			t.Fatalf("effective fractions %v differ from targets %v", eff, target)
		}
	}
	// Cross-region fraction is exactly region3's surplus.
	if got := p.CrossRegionFraction(); math.Abs(got-0.2) > 1e-6 {
		t.Fatalf("cross-region fraction = %v, want 0.2", got)
	}
	if p.String() == "" {
		t.Fatalf("plan string should not be empty")
	}
}

func TestBuildForwardPlanValidation(t *testing.T) {
	if _, err := BuildForwardPlan(nil, nil, nil); err == nil {
		t.Fatalf("empty plan should be rejected")
	}
	if _, err := BuildForwardPlan([]string{"a"}, []float64{1}, []float64{0.5, 0.5}); err == nil {
		t.Fatalf("mismatched lengths should be rejected")
	}
}

func TestForwardPlanRowAndDestination(t *testing.T) {
	p, err := BuildForwardPlan([]string{"a", "b"}, []float64{1, 0}, []float64{0.25, 0.75})
	if err != nil {
		t.Fatalf("BuildForwardPlan: %v", err)
	}
	row := p.Forward[0]
	if math.Abs(row[0]-0.25) > 1e-9 || math.Abs(row[1]-0.75) > 1e-9 {
		t.Fatalf("row(a) = %v, want [0.25 0.75]", row)
	}
	if got := p.DestinationIndex(0, 0.1); got != 0 {
		t.Fatalf("DestinationIndex(0.1) = %d, want 0 (a)", got)
	}
	if got := p.DestinationIndex(0, 0.9); got != 1 {
		t.Fatalf("DestinationIndex(0.9) = %d, want 1 (b)", got)
	}
	if got := p.DestinationIndex(0, math.Nextafter(1, 0)); got != 1 {
		t.Fatalf("DestinationIndex(1-ε) = %d, want the last region", got)
	}
	// Sampling the row many times approximates the distribution.
	countB := 0
	const n = 10000
	for i := 0; i < n; i++ {
		u := (float64(i) + 0.5) / n
		if p.DestinationIndex(0, u) == 1 {
			countB++
		}
	}
	if math.Abs(float64(countB)/n-0.75) > 0.01 {
		t.Fatalf("sampled forwarding ratio = %v, want ~0.75", float64(countB)/n)
	}
}

func TestForwardPlanZeroEntryRegion(t *testing.T) {
	// A region that receives no client connections still needs a valid row.
	p, err := BuildForwardPlan([]string{"a", "b"}, []float64{0, 1}, []float64{0.5, 0.5})
	if err != nil {
		t.Fatalf("BuildForwardPlan: %v", err)
	}
	row := p.Forward[0]
	s := 0.0
	for _, v := range row {
		s += v
	}
	if math.Abs(s-1) > 1e-9 {
		t.Fatalf("zero-entry region row should still sum to 1, got %v", row)
	}
	eff := p.EffectiveFractions()
	if math.Abs(eff[0]-0.5) > 1e-9 {
		t.Fatalf("effective fractions = %v, want [0.5 0.5]", eff)
	}
}

// Property: for random entry shares and targets, every row of the plan is a
// distribution and the effective fractions match the (normalised) targets.
func TestForwardPlanConsistencyProperty(t *testing.T) {
	f := func(e1, e2, e3, t1, t2, t3 uint8) bool {
		regions := []string{"a", "b", "c"}
		entry := []float64{float64(e1) + 1, float64(e2) + 1, float64(e3) + 1}
		target := []float64{float64(t1) + 1, float64(t2) + 1, float64(t3) + 1}
		p, err := BuildForwardPlan(regions, entry, target)
		if err != nil {
			return false
		}
		for _, row := range p.Forward {
			s := 0.0
			for _, v := range row {
				if v < 0 || math.IsNaN(v) {
					return false
				}
				s += v
			}
			if math.Abs(s-1) > 1e-6 {
				return false
			}
		}
		eff := p.EffectiveFractions()
		wantTarget := Normalize(target)
		for i := range eff {
			if math.Abs(eff[i]-wantTarget[i]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

func TestNewLoopValidation(t *testing.T) {
	if _, err := NewLoop(nil, SensibleRouting{}, 0.3); err == nil {
		t.Errorf("empty region list should be rejected")
	}
	if _, err := NewLoop([]string{"a"}, nil, 0.3); err == nil {
		t.Errorf("nil policy should be rejected")
	}
}

func TestLoopStepRunsAllPhasesAndInstallsFractions(t *testing.T) {
	regions := []string{"region1", "region3"}
	loop, err := NewLoop(regions, AvailableResources{}, 0.5)
	if err != nil {
		t.Fatalf("NewLoop: %v", err)
	}
	loop.SetKeepHistory(true)
	// Initial fractions are uniform.
	for _, f := range loop.Fractions() {
		if f != 0.5 {
			t.Fatalf("initial fractions = %v", loop.Fractions())
		}
	}

	res, err := loop.Step([]float64{4000, 1000}, 60, []float64{0.5, 0.5})
	if err != nil {
		t.Fatalf("Step: %v", err)
	}
	validFractions(t, res.Fractions, 2)
	// Policy 2 with equal previous fractions: region1 (higher RMTTF) gets the
	// larger share.
	if res.Fractions[0] <= res.Fractions[1] {
		t.Fatalf("region1 should receive the larger fraction: %v", res.Fractions)
	}
	// The loop installs the new fractions for the next era.
	got := loop.Fractions()
	for i := range got {
		if got[i] != res.Fractions[i] {
			t.Fatalf("installed fractions %v differ from result %v", got, res.Fractions)
		}
	}
	if res.Plan == nil || len(res.Plan.Forward) != 2 {
		t.Fatalf("step result should carry a forward plan")
	}
	if h := loop.History(); len(h) != 1 || h[0].Plan != res.Plan {
		t.Fatalf("history should retain the step result")
	}
	if loop.Aggregator().Current("region1") != 4000 {
		t.Fatalf("aggregator should have been primed with the first observation")
	}
}

func TestLoopStepValidatesLengths(t *testing.T) {
	loop, _ := NewLoop([]string{"a", "b"}, Uniform{}, 0.5)
	if _, err := loop.Step([]float64{1}, 10, []float64{0.5, 0.5}); err == nil {
		t.Fatalf("mismatched RMTTF length should be rejected")
	}
	if _, err := loop.Step([]float64{1, 2}, 10, []float64{1}); err == nil {
		t.Fatalf("mismatched entry share length should be rejected")
	}
}

func TestLoopPolicyErrorPropagates(t *testing.T) {
	loop, _ := NewLoop([]string{"a", "b"}, Static{Weights: []float64{1}}, 0.5)
	if _, err := loop.Step([]float64{1, 2}, 10, []float64{0.5, 0.5}); err == nil {
		t.Fatalf("policy error should propagate")
	}
	if got := loop.Fractions(); got[0] != 0.5 || got[1] != 0.5 {
		t.Fatalf("a failed step must keep the installed fractions, got %v", got)
	}
}

// TestLoopHistoryToggle: a loop keeps no history by default, and keeps every
// step result once SetKeepHistory(true) turns it on.
func TestLoopHistoryToggle(t *testing.T) {
	loop, _ := NewLoop([]string{"a", "b"}, Uniform{}, 0.5)
	step := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := loop.Step([]float64{100, 200}, 10, []float64{0.5, 0.5}); err != nil {
				t.Fatalf("Step: %v", err)
			}
		}
	}
	step(5)
	if n := len(loop.History()); n != 0 {
		t.Fatalf("history holds %d results by default, want none", n)
	}
	loop.SetKeepHistory(true)
	step(3)
	if n := len(loop.History()); n != 3 {
		t.Fatalf("history holds %d results after SetKeepHistory(true) and 3 steps, want 3", n)
	}
}

// Property: driving the loop with arbitrary positive RMTTF observations keeps
// the installed fractions a valid distribution at every era, for every
// policy.
func TestLoopFractionsAlwaysValidProperty(t *testing.T) {
	policies := []Policy{SensibleRouting{}, AvailableResources{}, &Exploration{K: 1}, Uniform{}}
	f := func(obs [][3]uint16) bool {
		if len(obs) == 0 {
			return true
		}
		for _, p := range policies {
			loop, err := NewLoop([]string{"r1", "r2", "r3"}, p, 0.4)
			if err != nil {
				return false
			}
			for _, o := range obs {
				rmttf := []float64{float64(o[0]) + 1, float64(o[1]) + 1, float64(o[2]) + 1}
				if _, err := loop.Step(rmttf, 50, []float64{0.2, 0.5, 0.3}); err != nil {
					return false
				}
				s := 0.0
				for _, v := range loop.Fractions() {
					if v < 0 || math.IsNaN(v) {
						return false
					}
					s += v
				}
				if math.Abs(s-1) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkLoopStep(b *testing.B) {
	loop, err := NewLoop([]string{"region1", "region2", "region3"}, AvailableResources{}, 0.5)
	if err != nil {
		b.Fatal(err)
	}
	rmttf := []float64{4000, 3500, 900}
	entry := []float64{0.3, 0.4, 0.3}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loop.Step(rmttf, 70, entry); err != nil {
			b.Fatal(err)
		}
	}
}
