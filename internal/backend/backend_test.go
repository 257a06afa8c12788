package backend

import (
	"strings"
	"testing"

	"repro/internal/acm"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/simclock"
)

func testConfig() acm.Config {
	return acm.Config{
		Seed: 7,
		Regions: []acm.RegionSetup{
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: 16},
		},
		Policy:          core.AvailableResources{},
		ControlInterval: 60 * simclock.Second,
	}
}

func TestSimulatedImplementsBackend(t *testing.T) {
	b, err := NewSimulated(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	var _ Backend = b
	if err := b.Run(5 * simclock.Minute); err != nil {
		t.Fatal(err)
	}
	final := b.Results()
	if final.Eras == 0 {
		t.Fatal("no control eras in the snapshot")
	}
	if len(final.RegionNames) != 1 || final.RegionNames[0] != "region1" {
		t.Fatalf("region names %v", final.RegionNames)
	}
	if final.GSLB != nil {
		t.Fatal("regional deployment reported a GSLB block")
	}
	if b.Registry() == nil || b.Recorder() == nil || b.Metrics() == nil {
		t.Fatal("nil surface on the backend")
	}
	if text := b.Registry().Text(); !strings.Contains(text, "acm_control_eras_total") {
		t.Fatalf("registry exposition missing era counter:\n%.1000s", text)
	}
}
