package experiment

import (
	"math"
	"strings"
	"testing"

	"repro/internal/simclock"
)

func TestRegistryContainsPaperScenarios(t *testing.T) {
	names := ScenarioNames()
	for _, want := range []string{"figure3", "figure4", "homogeneous", "elasticity"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("registry missing %q (have %v)", want, names)
		}
	}
	if ScenarioDescription("figure3") == "" {
		t.Errorf("figure3 should have a description")
	}
	sc, err := BuildScenario("figure3", 42)
	if err != nil {
		t.Fatalf("BuildScenario: %v", err)
	}
	if sc.Seed != 42 || len(sc.Regions) != 2 {
		t.Fatalf("built scenario wrong: %+v", sc)
	}
	if _, err := BuildScenario("no-such-scenario", 1); err == nil {
		t.Fatalf("unknown scenario should fail")
	}
}

func TestRegisterScenarioRejectsDuplicates(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("duplicate registration should panic")
		}
	}()
	RegisterScenario("figure3", "dup", Figure3Scenario)
}

func TestMatrixExpand(t *testing.T) {
	m := Matrix{
		Scenarios:    []string{"figure3", "figure4"},
		Policies:     []string{"policy1", "policy2"},
		Betas:        []float64{0.25, 0.75},
		Replications: 2,
		BaseSeed:     7,
		Horizon:      30 * simclock.Minute,
	}
	jobs, err := m.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(jobs) != 2*2*2*2 {
		t.Fatalf("expected %d jobs, got %d", 2*2*2*2, len(jobs))
	}
	for i, j := range jobs {
		if j.Index != i {
			t.Errorf("job %d has index %d", i, j.Index)
		}
		if j.Scenario.Horizon != 30*simclock.Minute {
			t.Errorf("job %d horizon not overridden: %v", i, j.Scenario.Horizon)
		}
		if !strings.Contains(j.Scenario.Name, "-beta") || !strings.Contains(j.Scenario.Name, "-rep") {
			t.Errorf("job %d name should encode beta and replication: %q", i, j.Scenario.Name)
		}
	}
	// Replications use independent derived seed streams; the same replication
	// shares its seed across cells for paired comparisons.
	if jobs[0].Scenario.Seed == jobs[1].Scenario.Seed {
		t.Errorf("replications should use distinct seeds")
	}
	if jobs[0].Scenario.Seed != jobs[2].Scenario.Seed {
		t.Errorf("the same replication should share its seed across policies: %d vs %d",
			jobs[0].Scenario.Seed, jobs[2].Scenario.Seed)
	}
	if jobs[0].Scenario.Seed != simclock.DeriveSeed(7, 0) {
		t.Errorf("seed derivation must be DeriveSeed(base, rep)")
	}

	// Expansion is pure: a second expansion yields the identical job list.
	again, err := m.Expand()
	if err != nil {
		t.Fatalf("second Expand: %v", err)
	}
	for i := range jobs {
		if jobs[i].Scenario.Name != again[i].Scenario.Name ||
			jobs[i].Scenario.Seed != again[i].Scenario.Seed ||
			jobs[i].Policy.Key != again[i].Policy.Key {
			t.Fatalf("expansion not reproducible at job %d", i)
		}
	}
}

func TestMatrixExpandDefaultsAndErrors(t *testing.T) {
	jobs, err := Matrix{Scenarios: []string{"figure3"}, BaseSeed: 1}.Expand()
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(jobs) != 3 {
		t.Fatalf("empty policy list should select the paper's three policies, got %d jobs", len(jobs))
	}
	for _, j := range jobs {
		if strings.Contains(j.Scenario.Name, "-beta") || strings.Contains(j.Scenario.Name, "-rep") {
			t.Errorf("no beta/rep suffix expected without overrides: %q", j.Scenario.Name)
		}
		if j.Scenario.Beta != 0.5 {
			t.Errorf("scenario default beta should be kept, got %v", j.Scenario.Beta)
		}
	}
	if _, err := (Matrix{}).Expand(); err == nil {
		t.Fatalf("matrix without scenarios should fail")
	}
	if _, err := (Matrix{Scenarios: []string{"nope"}}).Expand(); err == nil {
		t.Fatalf("unknown scenario should fail")
	}
	if _, err := (Matrix{Scenarios: []string{"figure3"}, Policies: []string{"bogus"}}).Expand(); err == nil {
		t.Fatalf("unknown policy should fail")
	}
	for _, beta := range []float64{1.5, math.NaN()} {
		if _, err := (Matrix{Scenarios: []string{"figure3"}, Betas: []float64{beta}}).Expand(); err == nil || !strings.Contains(err.Error(), "beta") {
			t.Fatalf("beta %v should fail by name instead of being silently reset or simulated, got %v", beta, err)
		}
	}
}
