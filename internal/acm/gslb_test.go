package acm

import (
	"strings"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/gslb"
	"repro/internal/pcam"
	"repro/internal/simclock"
	"repro/internal/workload"
)

func twoRegionSetups(clients int) []RegionSetup {
	return []RegionSetup{
		{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: clients},
		{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: clients},
	}
}

// latencyGSLB is a minimal latency-aware GSLB config for the two paper
// regions of twoRegionSetups.
func latencyGSLB() gslb.Config {
	return gslb.Config{
		Policy: gslb.PolicyLatency,
		RTT:    map[string][]float64{"global": {50, 120}},
	}
}

// TestGSLBConfigValidation: the Manager rejects global wiring it cannot
// realise, with errors naming the offending field.
func TestGSLBConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*Config)
		want string
	}{
		{"global clients without gslb", func(c *Config) { c.GlobalClients = 10 }, "no GSLB policy"},
		{"global arrival without gslb", func(c *Config) {
			c.Arrivals = []ArrivalSetup{{Name: "s", Rate: workload.RateSpec{Kind: workload.RateConstant, Rate: 1}}}
		}, "no GSLB policy"},
		{"unnamed arrival", func(c *Config) {
			c.Arrivals = []ArrivalSetup{{Rate: workload.RateSpec{Kind: workload.RateConstant, Rate: 1}, Region: "region1"}}
		}, "has no name"},
		{"duplicate arrival", func(c *Config) {
			c.Arrivals = []ArrivalSetup{
				{Name: "s", Rate: workload.RateSpec{Kind: workload.RateConstant, Rate: 1}, Region: "region1"},
				{Name: "s", Rate: workload.RateSpec{Kind: workload.RateConstant, Rate: 1}, Region: "region3"},
			}
		}, "listed twice"},
		{"bad rate spec", func(c *Config) {
			c.Arrivals = []ArrivalSetup{{Name: "s", Region: "region1"}}
		}, "unknown rate kind"},
		{"arrival to unknown region", func(c *Config) {
			c.Arrivals = []ArrivalSetup{{Name: "s", Rate: workload.RateSpec{Kind: workload.RateConstant, Rate: 1}, Region: "nowhere"}}
		}, "unknown region"},
		{"fault on unknown region", func(c *Config) {
			c.Faults = []RegionFault{{Region: "nowhere", At: simclock.Minute}}
		}, "unknown region"},
		{"bad gslb policy", func(c *Config) { c.GSLB = gslb.Config{Policy: "geo"} }, "unknown policy"},
		{"overlapping faults", func(c *Config) {
			c.Faults = []RegionFault{
				{Region: "region1", At: 10 * simclock.Minute, Duration: 10 * simclock.Minute},
				{Region: "region1", At: 15 * simclock.Minute, Duration: 10 * simclock.Minute},
			}
		}, "overlap"},
		{"fault after permanent fault", func(c *Config) {
			c.Faults = []RegionFault{
				{Region: "region1", At: 10 * simclock.Minute},
				{Region: "region1", At: 30 * simclock.Minute, Duration: simclock.Minute},
			}
		}, "overlap"},
		{"link fault without latency-aware gslb", func(c *Config) {
			c.GSLB = gslb.Config{Policy: gslb.PolicyRoundRobin}
			c.GlobalClients = 8
			c.LinkFaults = []LinkFault{{Stream: "global", Region: "region1", At: simclock.Minute, Factor: 2}}
		}, "latency-aware"},
		{"link fault on unknown stream", func(c *Config) {
			c.GSLB = latencyGSLB()
			c.GlobalClients = 8
			c.LinkFaults = []LinkFault{{Stream: "atlantis", Region: "region1", At: simclock.Minute, Factor: 2}}
		}, "unknown population stream"},
		{"link fault on unknown region", func(c *Config) {
			c.GSLB = latencyGSLB()
			c.GlobalClients = 8
			c.LinkFaults = []LinkFault{{Stream: "global", Region: "nowhere", At: simclock.Minute, Factor: 2}}
		}, "unknown region"},
		{"link fault on stream without RTT row", func(c *Config) {
			c.GSLB = latencyGSLB()
			c.GlobalClients = 8
			c.Arrivals = []ArrivalSetup{{Name: "s", Rate: workload.RateSpec{Kind: workload.RateConstant, Rate: 1}}}
			c.LinkFaults = []LinkFault{{Stream: "s", Region: "region1", At: simclock.Minute, Factor: 2}}
		}, "no GSLB.RTT row"},
		{"link fault with negative At", func(c *Config) {
			c.GSLB = latencyGSLB()
			c.GlobalClients = 8
			c.LinkFaults = []LinkFault{{Stream: "global", Region: "region1", At: -simclock.Minute, Factor: 2}}
		}, "negative At/Duration"},
		{"link fault with zero factor", func(c *Config) {
			c.GSLB = latencyGSLB()
			c.GlobalClients = 8
			c.LinkFaults = []LinkFault{{Stream: "global", Region: "region1", At: simclock.Minute}}
		}, "Factor"},
		{"overlapping link faults", func(c *Config) {
			c.GSLB = latencyGSLB()
			c.GlobalClients = 8
			c.LinkFaults = []LinkFault{
				{Stream: "global", Region: "region1", At: simclock.Minute, Factor: 2},
				{Stream: "global", Region: "region1", At: 2 * simclock.Minute, Duration: simclock.Minute, Factor: 3},
			}
		}, "overlap"},
		// One replica is the central director and sends no gossip, so every
		// gossip tuning field needs GossipReplicas >= 2, named by field.
		{"gossip interval on the central director", func(c *Config) {
			c.GSLB = gslb.Config{Policy: gslb.PolicyLeastLoad}
			c.GossipInterval = 5 * simclock.Second
		}, "acm: GossipInterval requires GossipReplicas >= 2"},
		{"gossip fanout on one replica", func(c *Config) {
			c.GSLB = gslb.Config{Policy: gslb.PolicyLeastLoad}
			c.GossipReplicas = 1
			c.GossipFanout = 2
		}, "acm: GossipFanout requires GossipReplicas >= 2"},
		{"gossip delay on one replica", func(c *Config) {
			c.GSLB = gslb.Config{Policy: gslb.PolicyLeastLoad}
			c.GossipReplicas = 1
			c.GossipDelay = simclock.Second
		}, "acm: GossipDelay requires GossipReplicas >= 2"},
		{"gossip loss on one replica", func(c *Config) {
			c.GSLB = gslb.Config{Policy: gslb.PolicyLeastLoad}
			c.GossipReplicas = 1
			c.GossipLoss = 0.5
		}, "acm: GossipLoss requires GossipReplicas >= 2"},
		{"partition on one replica", func(c *Config) {
			c.GSLB = gslb.Config{Policy: gslb.PolicyLeastLoad}
			c.GossipReplicas = 1
			c.PartitionFaults = []PartitionFault{{At: simclock.Minute, Replicas: []int{0}}}
		}, "acm: PartitionFaults requires GossipReplicas >= 2"},
		{"overlapping partitions", func(c *Config) {
			c.GSLB = gslb.Config{Policy: gslb.PolicyLeastLoad}
			c.GossipReplicas = 3
			c.PartitionFaults = []PartitionFault{
				{At: 10 * simclock.Minute, Duration: 10 * simclock.Minute, Replicas: []int{0}},
				{At: 5 * simclock.Minute, Duration: 6 * simclock.Minute, Replicas: []int{2}},
			}
		}, "acm: PartitionFaults 0 and 1 overlap"},
		{"back-to-back partitions", func(c *Config) {
			c.GSLB = gslb.Config{Policy: gslb.PolicyLeastLoad}
			c.GossipReplicas = 3
			c.PartitionFaults = []PartitionFault{
				{At: 10 * simclock.Minute, Duration: 5 * simclock.Minute, Replicas: []int{0}},
				{At: 15 * simclock.Minute, Duration: 5 * simclock.Minute, Replicas: []int{1}},
			}
		}, "acm: PartitionFaults 0 and 1 overlap"},
		{"negative gossip fanout", func(c *Config) {
			c.GSLB = gslb.Config{Policy: gslb.PolicyLeastLoad}
			c.GossipReplicas = 3
			c.GossipFanout = -1
		}, "acm: GossipFanout = -1"},
		{"latency-aware gossip", func(c *Config) {
			c.GSLB = latencyGSLB()
			c.GossipReplicas = 2
		}, "cannot run a latency-aware GSLB config"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: 1, Regions: twoRegionSetups(8)}
			tc.mut(&cfg)
			_, err := NewManager(cfg)
			if err == nil {
				t.Fatalf("NewManager accepted invalid config")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestGSLBForcesEventLoop: a director deployment left at EventWorkers 0 runs
// on the inline one-worker event loop and routes its global clients.
func TestGSLBForcesEventLoop(t *testing.T) {
	cfg := Config{
		Seed:          1,
		Regions:       twoRegionSetups(8),
		GSLB:          gslb.Config{Policy: gslb.PolicyRoundRobin},
		GlobalClients: 16,
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if m.cfg.EventWorkers != 1 {
		t.Fatalf("EventWorkers 0 promoted to %d, want 1", m.cfg.EventWorkers)
	}
	if m.HealthPlane() == nil {
		t.Fatal("no director built")
	}
	if err := m.Run(5 * simclock.Minute); err != nil {
		t.Fatal(err)
	}
	routed := uint64(0)
	for _, n := range m.GSLBRouted() {
		routed += n
	}
	if routed == 0 {
		t.Fatal("director routed nothing")
	}
}

// TestGSLBStaticRouteSharesChiSquare routes a deployment's global clients
// through a static 5:3:2 director over the three paper regions and tests the
// routed counts against those shares with a multinomial χ² at the 0.999
// quantile (13.816, 2 degrees of freedom).  It guards the whole routing
// chain: the prepared table and the index-keyed lane dispatchers.
func TestGSLBStaticRouteSharesChiSquare(t *testing.T) {
	cfg := Config{
		Seed: 3,
		Regions: []RegionSetup{
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: 8},
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion2), Clients: 8},
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: 8},
		},
		GSLB:          gslb.Config{Policy: gslb.PolicyStatic, Weights: []float64{5, 3, 2}},
		GlobalClients: 96,
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Run(20 * simclock.Minute); err != nil {
		t.Fatal(err)
	}
	if tr := m.GSLBTransitions(); len(tr) != 0 {
		t.Fatalf("the plane moved, so the shares are not static: %v", tr)
	}
	routed := m.GSLBRouted()
	shares := []float64{0.5, 0.3, 0.2}
	total := 0.0
	for _, name := range m.RegionNames() {
		total += float64(routed[name])
	}
	if total < 5000 {
		t.Fatalf("director routed only %.0f requests", total)
	}
	stat := 0.0
	for i, name := range m.RegionNames() {
		want := total * shares[i]
		stat += (float64(routed[name]) - want) * (float64(routed[name]) - want) / want
	}
	if stat > 13.816 {
		t.Fatalf("χ² = %.2f > 13.816: routed %v against shares %v", stat, routed, shares)
	}
}

// TestPinnedArrivals: region-pinned time-varying streams work without a
// director (no GSLB involved) and are deterministic.
func TestPinnedArrivals(t *testing.T) {
	run := func() (uint64, float64) {
		cfg := Config{
			Seed:    7,
			Regions: twoRegionSetups(8),
			Arrivals: []ArrivalSetup{
				{Name: "stream", Region: "region1", Rate: workload.RateSpec{
					Kind: workload.RateSinusoid, Base: 4, Amplitude: 2, Period: 10 * simclock.Minute,
				}},
			},
		}
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Run(10 * simclock.Minute); err != nil {
			t.Fatal(err)
		}
		met := m.Metrics()
		return met.Issued("stream"), met.MeanResponseTime("stream")
	}
	issued, mean := run()
	if issued == 0 {
		t.Fatal("pinned stream issued nothing")
	}
	// ~4/s over 10 minutes ≈ 2400.
	if issued < 1500 || issued > 3500 {
		t.Fatalf("pinned stream issued %d requests, want ~2400", issued)
	}
	issued2, mean2 := run()
	if issued != issued2 || mean != mean2 {
		t.Fatalf("pinned arrival runs diverged: %d/%v vs %d/%v", issued, mean, issued2, mean2)
	}
}

// TestRegionFaultOutageAndRecovery: the scripted outage actually collapses
// the active pool and the controller repromotes it after the restore.
// Elasticity is deliberately ON: while the target is forced the ADDVMS
// branch must stay suspended — the blackout's slow drained completions
// would otherwise trip the response-time threshold and re-activate the
// capacity the fault took away.
func TestRegionFaultOutageAndRecovery(t *testing.T) {
	cfg := Config{
		Seed:    3,
		Regions: twoRegionSetups(8),
		VMC:     pcam.Config{ElasticityEnabled: true, ResponseTimeThreshold: 1.0},
		Faults: []RegionFault{
			{Region: "region1", At: 2 * simclock.Minute, Duration: 3 * simclock.Minute, KeepActive: 0},
		},
	}
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	eng := m.Engine()
	var duringOutage, afterRecovery int
	// Sample late in the outage window, after several control ticks have
	// had the chance to (wrongly) promote standbys or trip ADDVMS.
	eng.ScheduleFunc(4*simclock.Minute+50*simclock.Second, func(*simclock.Engine) {
		duringOutage = m.VMC("region1").ActiveVMs()
	})
	eng.ScheduleFunc(9*simclock.Minute, func(*simclock.Engine) {
		afterRecovery = m.VMC("region1").ActiveVMs()
	})
	if err := m.el.se.Run(10 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
		t.Fatal(err)
	}
	m.Stop()
	if duringOutage != 0 {
		t.Fatalf("outage left %d ACTIVE VMs, want 0", duringOutage)
	}
	if afterRecovery == 0 {
		t.Fatal("region never repromoted after the outage")
	}
}
