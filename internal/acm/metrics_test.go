package acm

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/gslb"
	"repro/internal/simclock"
)

// TestSampledSetsMatchRegisteredFamilies pins the sampler's mapping table to
// the families buildMetrics registers: after a run, the recorder holds
// exactly the table's sets whose family the deployment registered, in table
// order.  A family renamed in buildMetrics but not in seriesSamples would
// silently drop its series (Each visits nothing for an unknown name); this
// catches it even for series no golden covers.
func TestSampledSetsMatchRegisteredFamilies(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// planeSet is one set only this deployment's plane produces, so the
		// test cannot pass vacuously on the paper series alone.
		planeSet string
	}{
		{"latency-gslb", Config{Seed: 1, Regions: twoRegionSetups(8), GSLB: latencyGSLB(), GlobalClients: 16}, "gslb_rtt"},
		{"gossip", Config{Seed: 1, Regions: twoRegionSetups(8), GSLB: gslb.Config{Policy: gslb.PolicyLeastLoad}, GlobalClients: 16, GossipReplicas: 3}, "gossip_convergence"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := NewManager(tc.cfg.WithDefaults())
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Run(3 * simclock.Minute); err != nil {
				t.Fatal(err)
			}
			registered := map[string]bool{}
			for _, d := range m.MetricsRegistry().Describe() {
				registered[d.Name] = true
			}
			var want []string
			for _, row := range seriesSamples {
				if registered[row.family] {
					want = append(want, row.set)
				}
			}
			got := m.Recorder().SetNames()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("recorded sets %q, want the registered table sets %q", got, want)
			}
			if !slices.Contains(got, tc.planeSet) {
				t.Fatalf("%s deployment recorded no %s set", tc.name, tc.planeSet)
			}
		})
	}
}
