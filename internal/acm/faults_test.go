package acm

import (
	"strings"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/simclock"
)

// faultFuzzConfig is the 3-region paper deployment the control-fault fuzz
// target runs: a few dozen clients, so one 30-minute run stays cheap.
func faultFuzzConfig() Config {
	return Config{
		Seed: 5,
		Regions: []RegionSetup{
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: 16},
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion2), Clients: 12},
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: 8},
		},
		Policy:          core.AvailableResources{},
		ControlInterval: 60 * simclock.Second,
	}.WithDefaults()
}

// fuzzControllers are the controller targets a fuzzed window draws from:
// the three regions, then an overlay relay that is no controller.
var fuzzControllers = []string{"region1", "region2", "region3", "transit-ams"}

// fuzzLinks are the overlay targets a fuzzed window draws from: the six links
// of the paper overlay, then a pair no link joins and an unknown node.
var fuzzLinks = [][2]string{
	{"region1", "region2"}, {"region2", "region3"}, {"region1", "region3"},
	{"region1", "transit-ams"}, {"region2", "transit-ams"}, {"region3", "transit-ams"},
	{"region2", "region2"}, {"region1", "atlantis"},
}

// FuzzControlFaults decodes bytes into up to four controller or overlay-link
// fault windows on the 3-region paper overlay, four bytes each: kind and
// direction, target, start and duration (in 15 s steps; a zero duration is a
// permanent fault).  NewManager must never panic and must name the list it
// rejects; an accepted schedule must run 30 simulated minutes without error,
// run exactly one election per fault edge that fired (plus the one at
// construction), and, once every window has closed, end on the leader of
// the fault-free run.
func FuzzControlFaults(f *testing.F) {
	f.Add([]byte{})
	// The failover example's schedule, scaled to the 30-minute horizon.
	f.Add([]byte{1, 2, 28, 80, 0, 1, 40, 36})
	// Overlapping windows on one link named in both directions.
	f.Add([]byte{1, 2, 4, 20, 3, 2, 8, 4})
	// Permanent failures, one window past the horizon, an unknown target.
	f.Add([]byte{0, 0, 8, 0, 1, 3, 12, 0, 0, 1, 200, 4, 1, 7, 4, 4})
	ref, err := NewManager(faultFuzzConfig())
	if err != nil {
		f.Fatal(err)
	}
	faultFreeLeader, _ := ref.Cluster().GlobalLeader()
	const horizon = 30 * simclock.Minute
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := faultFuzzConfig()
		elections := uint64(1)
		allClosed := true
		for k := 0; k+4 <= len(data) && k < 16; k += 4 {
			at, dur := 15*simclock.Duration(data[k+2]), 15*simclock.Duration(data[k+3])
			if data[k]&1 == 0 {
				cfg.ControllerFaults = append(cfg.ControllerFaults, ControllerFault{
					Region: fuzzControllers[int(data[k+1])%len(fuzzControllers)], At: at, Duration: dur})
			} else {
				link := fuzzLinks[int(data[k+1])%len(fuzzLinks)]
				if data[k]&2 != 0 {
					link[0], link[1] = link[1], link[0]
				}
				cfg.OverlayFaults = append(cfg.OverlayFaults, OverlayFault{A: link[0], B: link[1], At: at, Duration: dur})
			}
			// Events at the horizon itself still fire.
			if at <= horizon {
				elections++
			}
			if dur > 0 && at+dur <= horizon {
				elections++
			} else {
				allClosed = false
			}
		}
		m, err := NewManager(cfg.WithDefaults())
		if err != nil {
			if !strings.Contains(err.Error(), "ControllerFaults") && !strings.Contains(err.Error(), "OverlayFaults") {
				t.Fatalf("rejected schedule %+v %+v with %v, which names neither list", cfg.ControllerFaults, cfg.OverlayFaults, err)
			}
			return
		}
		if err := m.Run(horizon); err != nil {
			t.Fatalf("Run: %v", err)
		}
		if got := m.Cluster().Elections(); got != elections {
			t.Fatalf("%d elections, want %d, for %+v %+v", got, elections, cfg.ControllerFaults, cfg.OverlayFaults)
		}
		if leader, _ := m.Cluster().GlobalLeader(); allClosed && leader != faultFreeLeader {
			t.Fatalf("every window closed, but the leader is %q, want %q", leader, faultFreeLeader)
		}
	})
}
