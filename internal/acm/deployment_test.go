package acm_test

import (
	"reflect"
	"testing"

	"repro/internal/backend"
	"repro/internal/experiment"
	"repro/internal/gossip"
)

// TestDeploymentHoldsTheScenario: a built scenario holds every value it
// runs with, so the configs the deployment keeps are the scenario's own,
// not values a constructor below the edge substituted for a 0.
func TestDeploymentHoldsTheScenario(t *testing.T) {
	np := experiment.Policies()[1]
	for _, name := range experiment.ScenarioNames() {
		sc, err := experiment.BuildScenario(name, 42)
		if err != nil {
			t.Fatal(err)
		}
		b, err := experiment.NewBackend(sc, np)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		m := b.(*backend.Simulated).Manager()
		for i, r := range m.Regions() {
			if got, want := r.Config(), sc.Regions[i].Region; got != want {
				t.Errorf("%s: region %s holds\n%+v\nwant the scenario's\n%+v", name, r.Name(), got, want)
			}
			if got := m.VMC(r.Name()).Config(); got != sc.VMC {
				t.Errorf("%s: the VMC of %s holds %+v, want the scenario's %+v", name, r.Name(), got, sc.VMC)
			}
		}
		if p := m.HealthPlane(); p != nil {
			want := gossip.Config{Replicas: max(1, sc.GossipReplicas), Interval: sc.GossipInterval, Fanout: sc.GossipFanout, Delay: sc.GossipDelay, Loss: sc.GossipLoss}
			if got := p.Config(); got != want {
				t.Errorf("%s: the gossip plane holds %+v, want %+v", name, got, want)
			}
			for i := 0; i < p.NumReplicas(); i++ {
				if got := p.Director(i).Config(); !reflect.DeepEqual(got, sc.GSLB) {
					t.Errorf("%s: director %d holds %+v, want the scenario's %+v", name, i, got, sc.GSLB)
				}
			}
		}
		for _, n := range m.CohortMaxBatches() {
			if n != sc.CohortMaxBatch {
				t.Errorf("%s: a cohort batches up to %d, want the scenario's %d", name, n, sc.CohortMaxBatch)
			}
		}
	}
}
