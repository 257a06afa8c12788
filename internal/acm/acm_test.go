package acm

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/f2pm"
	"repro/internal/gslb"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// smallConfig returns a reduced two-region deployment (paper regions 1 and 3)
// that runs quickly enough for unit tests while still exercising every
// subsystem.
func smallConfig(seed uint64, policy core.Policy) Config {
	return Config{
		Seed: seed,
		Regions: []RegionSetup{
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: 180},
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: 80},
		},
		Policy:          policy,
		Beta:            0.5,
		ControlInterval: 60 * simclock.Second,
		Predictor:       PredictorOracle,
	}.WithDefaults()
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatalf("a configuration with no regions should be rejected")
	}
	for _, beta := range []float64{math.NaN(), 1.7, -0.5} {
		out := smallConfig(1, core.AvailableResources{})
		out.Beta = beta
		if _, err := NewManager(out.WithDefaults()); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("acm: Beta must be in (0, 1], got %v", beta)) {
			t.Fatalf("beta %v outside (0, 1] should be rejected by name, got %v", beta, err)
		}
	}
	badVMC := smallConfig(1, core.AvailableResources{})
	badVMC.VMC.RTTFThreshold = -10
	if _, err := NewManager(badVMC.WithDefaults()); err == nil || !strings.Contains(err.Error(), "RTTFThreshold") {
		t.Fatalf("a negative VMC RTTFThreshold should be rejected by name, got %v", err)
	}
	for _, c := range []struct {
		field string
		set   func(*Config)
	}{
		{"Regions[0].Region.Anomalies.LeakProbability", func(c *Config) { c.Regions[0].Region.Anomalies.LeakProbability = 1.5 }},
		{"Regions[1].Region.Anomalies.LeakProbability", func(c *Config) { c.Regions[1].Region.Anomalies.LeakProbability = math.NaN() }},
		{"Regions[0].Region.Anomalies.ThreadProbability", func(c *Config) { c.Regions[0].Region.Anomalies.ThreadProbability = -0.1 }},
		{"Regions[1].Region.Anomalies.ThreadProbability", func(c *Config) { c.Regions[1].Region.Anomalies.ThreadProbability = 1.01 }},
		{"Regions[0].Region.Anomalies.LeakSizeMB", func(c *Config) { c.Regions[0].Region.Anomalies.LeakSizeMB = -2 }},
		{"Regions[1].Region.Anomalies.ThreadStackMB", func(c *Config) { c.Regions[1].Region.Anomalies.ThreadStackMB = -0.5 }},
		{"CohortMaxBatch", func(c *Config) { c.CohortMaxBatch = -1 }},
		{"CohortTick", func(c *Config) { c.CohortTick = -simclock.Second }},
		{"CohortTick", func(c *Config) { c.CohortTick = simclock.Duration(math.NaN()) }},
		// Each of these once panicked, hung or ran silently past NewManager.
		{"Regions[0].Clients", func(c *Config) { c.Regions[0].Clients = -1 }},
		{"Regions[0].Region.Type.BaseServiceMs", func(c *Config) { c.Regions[0].Region.Type.BaseServiceMs = math.NaN() }},
		{"Regions[1].Region.Type.BaseServiceMs", func(c *Config) { c.Regions[1].Region.Type.BaseServiceMs = -5 }},
		{"Regions[0].Region.Shards", func(c *Config) { c.Regions[0].Region.Shards = cloudsim.MaxShards + 1 }},
		{"ThinkTime", func(c *Config) { c.ThinkTime = simclock.Duration(math.NaN()) }},
		{"ThinkTime", func(c *Config) { c.ThinkTime = -simclock.Second }},
		{"ControlInterval", func(c *Config) { c.ControlInterval = simclock.Duration(math.NaN()) }},
		{"GossipInterval", func(c *Config) {
			c.GSLB, c.GossipReplicas = gslb.Config{Policy: gslb.PolicyLeastLoad}, 3
			c.GossipInterval = simclock.Duration(math.NaN())
		}},
		{"Arrivals[0].Rate.Rate", func(c *Config) {
			c.Arrivals = []ArrivalSetup{{Name: "s", Region: "region1", Rate: workload.RateSpec{Kind: workload.RateConstant, Rate: math.Inf(1)}}}
		}},
		{"Arrivals[0].Rate.Rate", func(c *Config) {
			c.Arrivals = []ArrivalSetup{{Name: "s", Region: "region1", Rate: workload.RateSpec{Kind: workload.RateConstant, Rate: math.NaN()}}}
		}},
	} {
		bad := smallConfig(1, core.AvailableResources{})
		c.set(&bad)
		if _, err := NewManager(bad.WithDefaults()); err == nil || !strings.Contains(err.Error(), "acm: "+c.field+" ") {
			t.Fatalf("%s out of range should be rejected by name, got %v", c.field, err)
		}
	}
	edge := smallConfig(1, core.AvailableResources{})
	edge.Regions[0].Region.Anomalies = cloudsim.AnomalyProfile{LeakProbability: 1, ThreadProbability: 0}
	if _, err := NewManager(edge); err != nil {
		t.Fatalf("boundary anomaly probabilities should be accepted: %v", err)
	}
	m, err := NewManager(smallConfig(1, core.AvailableResources{}))
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if len(m.RegionNames()) != 2 || m.RegionNames()[0] != "region1" {
		t.Fatalf("region names = %v", m.RegionNames())
	}
	if m.VMC("region1") == nil || m.VMC("nope") != nil {
		t.Fatalf("VMC lookup broken")
	}
	if m.Loop() == nil || m.plan == nil || m.Overlay() == nil || m.Cluster() == nil {
		t.Fatalf("accessors should be non-nil after construction")
	}
	if m.Engine() == nil || m.Recorder() == nil || m.Metrics() == nil {
		t.Fatalf("engine/recorder/metrics accessors should be non-nil")
	}
	if len(m.Regions()) != 2 {
		t.Fatalf("Regions() = %d", len(m.Regions()))
	}
}

func TestManagerRunsClosedLoopEndToEnd(t *testing.T) {
	m, err := NewManager(smallConfig(7, core.AvailableResources{}))
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if err := m.Run(45 * simclock.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}

	if m.Eras() < 40 {
		t.Fatalf("expected ~45 control eras, got %d", m.Eras())
	}
	if m.Metrics().Completed("") == 0 {
		t.Fatalf("clients completed no requests")
	}
	if m.Metrics().SuccessRatio("") < 0.95 {
		t.Fatalf("success ratio = %v, want near 1 (drops should be rare with proactive rejuvenation)",
			m.Metrics().SuccessRatio(""))
	}

	// Fractions installed by the loop are a valid distribution.
	fr := m.Loop().Fractions()
	sum := 0.0
	for _, f := range fr {
		if f < 0 {
			t.Fatalf("negative fraction %v", fr)
		}
		sum += f
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("fractions sum to %v", sum)
	}
	// Under policy 2, the big region (region1: 6 m3.medium) must carry more
	// load than the small private region (region3: 4 small VMs).
	if fr[0] <= fr[1] {
		t.Fatalf("region1 should carry the larger fraction under policy 2, got %v", fr)
	}

	// The recorder captured the series the figures need.
	rec := m.Recorder()
	for _, set := range []string{"rmttf", "fraction", "response_time"} {
		found := false
		for _, name := range rec.SetNames() {
			if name == set {
				found = true
			}
		}
		if !found {
			t.Fatalf("recorder is missing the %q series set (have %v)", set, rec.SetNames())
		}
	}
	if rec.Series("rmttf", "region1").Len() == 0 || rec.Series("fraction", "region3").Len() == 0 {
		t.Fatalf("per-region series are empty")
	}
	if rec.Series("response_time", "all_clients").Len() == 0 {
		t.Fatalf("response-time series is empty")
	}

	// The VMCs performed proactive rejuvenations and the regions stayed
	// healthy.
	stats := m.VMCStats()
	totalProactive := uint64(0)
	for _, s := range stats {
		totalProactive += s.ProactiveRejuvenations
	}
	if totalProactive == 0 {
		t.Fatalf("no proactive rejuvenation happened in 45 minutes of heavy load; stats=%+v", stats)
	}
	regionStats := m.RegionStats()
	if len(regionStats) != 2 || regionStats[0].Served == 0 {
		t.Fatalf("region stats look wrong: %+v", regionStats)
	}
	if m.ControlMessages() == 0 {
		t.Fatalf("the control loop should have exchanged messages between controllers")
	}
}

func TestManagerForwardsRequestsAcrossRegions(t *testing.T) {
	// Entry shares (clients) are deliberately skewed toward the small region,
	// so the policy must forward part of its traffic to the big region.
	cfg := Config{
		Seed: 11,
		Regions: []RegionSetup{
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: 60},
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: 200},
		},
		Policy:          core.AvailableResources{},
		Beta:            0.5,
		ControlInterval: 60 * simclock.Second,
	}
	m, err := NewManager(cfg.WithDefaults())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if err := m.Run(30 * simclock.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.ForwardedRequests() == 0 {
		t.Fatalf("with skewed entry shares the plan must forward requests across regions")
	}
	if m.LocalRequests() == 0 {
		t.Fatalf("some requests should still be processed locally")
	}
	// Forwarding shows up in the plan as a positive cross-region fraction.
	if m.plan.CrossRegionFraction() <= 0 {
		t.Fatalf("cross-region fraction should be positive, plan:\n%s", m.plan)
	}
}

func TestManagerLeaderElectionAndFailover(t *testing.T) {
	cfg := smallConfig(13, core.SensibleRouting{})
	// Fail the leader controller mid-run and recover it later.  Also fail
	// one overlay link; the overlay must reroute without killing the run.
	cfg.ControllerFaults = []ControllerFault{{Region: "region1", At: 10 * simclock.Minute, Duration: 10 * simclock.Minute}}
	cfg.OverlayFaults = []OverlayFault{{A: "region1", B: "region3", At: 12 * simclock.Minute, Duration: 6 * simclock.Minute}}
	m, err := NewManager(cfg.WithDefaults())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	initialLeader, ok := m.Cluster().GlobalLeader()
	if !ok {
		t.Fatalf("no initial leader elected")
	}
	if initialLeader != "region1" {
		// region1 has 9 VMs vs region3's 6: it should lead.
		t.Fatalf("initial leader = %q, want region1", initialLeader)
	}

	if err := m.Run(30 * simclock.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	// One election at construction, then one per failure and per recovery.
	if got := m.Cluster().Elections(); got != 5 {
		t.Fatalf("elections = %d, want 5 (construction plus four fault edges)", got)
	}
	leader, ok := m.Cluster().GlobalLeader()
	if !ok || leader != initialLeader {
		t.Fatalf("after recovery the original leader should lead again, got %q", leader)
	}
	if m.Eras() == 0 {
		t.Fatalf("the control loop should have kept running through the failures")
	}
}

func TestManagerDeterministicForSameSeed(t *testing.T) {
	run := func() (uint64, []float64, uint64) {
		m, err := NewManager(smallConfig(99, core.AvailableResources{}))
		if err != nil {
			t.Fatalf("NewManager: %v", err)
		}
		if err := m.Run(20 * simclock.Minute); err != nil {
			t.Fatalf("Run: %v", err)
		}
		return m.Eras(), m.Loop().Fractions(), m.Metrics().Completed("")
	}
	e1, f1, c1 := run()
	e2, f2, c2 := run()
	if e1 != e2 || c1 != c2 {
		t.Fatalf("same seed should reproduce the run exactly: eras %d vs %d, completed %d vs %d", e1, e2, c1, c2)
	}
	for i := range f1 {
		if f1[i] != f2[i] {
			t.Fatalf("fractions differ between identical runs: %v vs %v", f1, f2)
		}
	}
}

func TestManagerWithMLPredictor(t *testing.T) {
	if testing.Short() {
		t.Skip("ML profiling + training is comparatively slow")
	}
	cfg := smallConfig(21, core.AvailableResources{})
	cfg.Predictor = PredictorML
	cfg.MLProfile = f2pm.ProfileConfig{
		VMs:            2,
		RatePerVM:      8,
		TargetFailures: 4,
		SampleInterval: 30 * simclock.Second,
		MaxHorizon:     8 * simclock.Hour,
	}
	m, err := NewManager(cfg.WithDefaults())
	if err != nil {
		t.Fatalf("NewManager(ML.WithDefaults()): %v", err)
	}
	if err := m.Run(30 * simclock.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Eras() == 0 || m.Metrics().Completed("") == 0 {
		t.Fatalf("ML-driven deployment did not make progress")
	}
	// Even with an imperfect learned predictor, most rejuvenations should be
	// proactive rather than reactive crash recoveries.
	stats := m.VMCStats()
	var proactive, reactive uint64
	for _, s := range stats {
		proactive += s.ProactiveRejuvenations
		reactive += s.ReactiveRecoveries
	}
	if proactive == 0 {
		t.Fatalf("the learned model never triggered proactive rejuvenation; stats=%+v", stats)
	}
	_ = reactive // reactive recoveries are tolerated, just not required to be zero
}

func TestDefaultOverlayForNonPaperRegions(t *testing.T) {
	cfg := Config{
		Seed: 3,
		Regions: []RegionSetup{
			{Region: cloudsim.RegionConfig{Name: "east", Type: cloudsim.M3Medium, InitialActive: 2, InitialStandby: 1}, Clients: 20},
			{Region: cloudsim.RegionConfig{Name: "west", Type: cloudsim.M3Small, InitialActive: 2, InitialStandby: 1}, Clients: 20},
		},
		Policy: core.Uniform{},
	}
	m, err := NewManager(cfg.WithDefaults())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if !m.Overlay().Reachable("east", "west") {
		t.Fatalf("custom regions should be connected by the default mesh overlay")
	}
	if err := m.Run(10 * simclock.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Metrics().Completed("") == 0 {
		t.Fatalf("no requests completed")
	}
}

func TestManagerUnknownPredictorMode(t *testing.T) {
	cfg := smallConfig(1, core.Uniform{})
	cfg.Predictor = PredictorMode("quantum")
	if _, err := NewManager(cfg.WithDefaults()); err == nil {
		t.Fatalf("unknown predictor mode should be rejected")
	}
}

func TestEntryDispatcherFallsBackWhenUnreachable(t *testing.T) {
	m, err := NewManager(smallConfig(5, core.AvailableResources{}))
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	// Cut region3 off completely before starting; its entry traffic must then
	// be served locally rather than lost.
	m.Overlay().FailNode("region3")
	m.Overlay().FailNode("transit-ams")
	if err := m.Run(10 * simclock.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Metrics().Completed("region3") == 0 {
		t.Fatalf("region3 clients should still be served locally when the overlay is down")
	}
}

func TestWorkloadDispatcherIntegration(t *testing.T) {
	// The manager's entry dispatcher must satisfy the workload.Dispatcher
	// contract: every submitted request eventually completes (or is dropped)
	// exactly once.  Run a tiny deployment and compare issued vs. terminated.
	m, err := NewManager(smallConfig(17, core.Uniform{}))
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if err := m.Run(10 * simclock.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	met := m.Metrics()
	terminated := met.Completed("") + met.Dropped("")
	issued := met.Issued("")
	// The last few requests may still be in flight when the horizon cuts the
	// run; allow a small in-flight difference.
	if issued-terminated > uint64(len(m.RegionNames()))*20 {
		t.Fatalf("too many requests unaccounted for: issued=%d terminated=%d", issued, terminated)
	}
	_ = workload.SLAThresholdSeconds // keep the import meaningful: SLA accounting is exercised above
}

func BenchmarkManagerControlEra(b *testing.B) {
	m, err := NewManager(smallConfig(1, core.AvailableResources{}))
	if err != nil {
		b.Fatal(err)
	}
	m.Start()
	// Warm the deployment so RMTTFs are primed.
	_ = m.el.se.Run(5 * simclock.Minute)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.controlEra(m.Engine())
	}
	b.StopTimer()
	m.Stop()
}

func TestWorkloadSurgeStartsLater(t *testing.T) {
	cfg := smallConfig(31, core.AvailableResources{})
	cfg.Regions[0].SurgeClients = 200
	cfg.Regions[0].SurgeAt = 10 * simclock.Minute
	m, err := NewManager(cfg.WithDefaults())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	m.Start()

	// Before the surge: throughput corresponds to the base populations only.
	if err := m.el.se.Run(9 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	preSurge := m.Metrics().Issued("region1")
	if preSurge == 0 {
		t.Fatal("region1 issued nothing before the surge")
	}

	// Run well past the surge and compare per-minute arrival rates.
	if err := m.el.se.Run(25 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
		t.Fatalf("run: %v", err)
	}
	m.Stop()
	postSurge := m.Metrics().Issued("region1") - preSurge

	ratePre := float64(preSurge) / 9
	ratePost := float64(postSurge) / 16
	if ratePost < ratePre*1.5 {
		t.Fatalf("the surge should roughly double region1's arrival rate: pre=%.1f/min post=%.1f/min", ratePre, ratePost)
	}
}

func TestSurgeRequiresBothFields(t *testing.T) {
	cfg := smallConfig(32, core.Uniform{})
	cfg.Regions[0].SurgeClients = 100 // SurgeAt left at zero: no surge population
	m, err := NewManager(cfg.WithDefaults())
	if err != nil {
		t.Fatalf("NewManager: %v", err)
	}
	if len(m.el.surge[0]) != 0 {
		t.Fatalf("a surge without a start time should not create a population")
	}
}

// TestCutOverlayStopsForwarding: a request the plan routes to an unreachable
// region is processed in its entry region, so it counts as local and never
// as forwarded.  A skewed two-region deployment whose only overlay link is
// cut halfway must keep ForwardedRequests flat from the cut on, at
// EventWorkers 0 (promoted to 1) and 1 alike.
func TestCutOverlayStopsForwarding(t *testing.T) {
	for _, workers := range []int{0, 1} {
		cfg := Config{
			Seed: 11,
			Regions: []RegionSetup{
				{Region: cloudsim.RegionConfig{Name: "east", Type: cloudsim.M3Medium, InitialActive: 2, InitialStandby: 1}, Clients: 200},
				{Region: cloudsim.RegionConfig{Name: "west", Type: cloudsim.M3Medium, InitialActive: 6, InitialStandby: 2}, Clients: 40},
			},
			Policy:          core.AvailableResources{},
			Beta:            0.5,
			ControlInterval: 60 * simclock.Second,
			EventWorkers:    workers,
		}
		const cut = 15 * simclock.Minute
		cfg.OverlayFaults = []OverlayFault{{A: "east", B: "west", At: cut}}
		m, err := NewManager(cfg.WithDefaults())
		if err != nil {
			t.Fatalf("workers=%d: NewManager: %v", workers, err)
		}
		// The probe is scheduled before Run and the fault window is armed
		// in Start, so at the instant of the cut the probe fires first.  Both
		// are control events of one barrier, between which no lane runs, so
		// the probe reads the counters as they stand at the cut.
		var forwardedAtCut, localAtCut uint64
		m.Engine().ScheduleFunc(cut, func(*simclock.Engine) {
			forwardedAtCut, localAtCut = m.ForwardedRequests(), m.LocalRequests()
		})
		if err := m.Run(30 * simclock.Minute); err != nil {
			t.Fatalf("workers=%d: Run: %v", workers, err)
		}
		if forwardedAtCut == 0 {
			t.Fatalf("workers=%d: the skewed plan forwarded nothing before the cut", workers)
		}
		if got := m.ForwardedRequests(); got != forwardedAtCut {
			t.Errorf("workers=%d: %d requests counted as forwarded after the only link was cut", workers, got-forwardedAtCut)
		}
		if m.LocalRequests() <= localAtCut {
			t.Errorf("workers=%d: no request counted as local after the cut", workers)
		}
	}
}

// TestUnfilledConfigIsRejected: NewManager runs a Config as given, so every
// 0 that WithDefaults would fill is rejected by the field's name, not run
// on a default chosen silently below the edge.
func TestUnfilledConfigIsRejected(t *testing.T) {
	raw := Config{Regions: []RegionSetup{{Region: cloudsim.RegionConfig{Name: "r", Type: cloudsim.M3Medium, InitialActive: 2}, Clients: 4}}}
	raw.Policy = core.AvailableResources{}
	if _, err := NewManager(raw); err == nil || err.Error() != "acm: Regions[0].Region.Shards must be in [1, 65536], got 0" {
		t.Fatalf("an unfilled Config: got %v, want its first 0 rejected by name", err)
	}
	for _, c := range []struct {
		field string
		zero  func(*Config)
	}{
		{"Beta", func(c *Config) { c.Beta = 0 }},
		{"ControlInterval", func(c *Config) { c.ControlInterval = 0 }},
		{"ThinkTime", func(c *Config) { c.ThinkTime = 0 }},
		{"InitialAgeSpread", func(c *Config) { c.InitialAgeSpread = 0 }},
		{"TracerFraction", func(c *Config) { c.TracerFraction = 0 }},
		{"EventWorkers", func(c *Config) { c.EventWorkers = 0 }},
		{"EventEpoch", func(c *Config) { c.EventEpoch = 0 }},
		{"CohortTick", func(c *Config) { c.CohortTick = 0 }},
		{"CohortMaxBatch", func(c *Config) { c.CohortMaxBatch = 0 }},
		{"VMC.RTTFThreshold", func(c *Config) { c.VMC.RTTFThreshold = 0 }},
		{"VMC.ControlInterval", func(c *Config) { c.VMC.ControlInterval = 0 }},
		{"VMC.MinActive", func(c *Config) { c.VMC.MinActive = 0 }},
		{"VMC.RMTTFBeta", func(c *Config) { c.VMC.RMTTFBeta = 0 }},
		{"GSLB.ProbeInterval", func(c *Config) { c.GSLB.ProbeInterval = 0 }},
		{"GSLB.ErrorThreshold", func(c *Config) { c.GSLB.ErrorThreshold = 0 }},
		{"MLProfile.VMs", func(c *Config) { c.MLProfile.VMs = 0 }},
		{"Regions[1].Region.Shards", func(c *Config) { c.Regions[1].Region.Shards = 0 }},
		{"Regions[0].Region.Type.VCPUs", func(c *Config) { c.Regions[0].Region.Type.VCPUs = 0 }},
		{"Policy", func(c *Config) { c.Policy = nil }},
	} {
		cfg := smallConfig(1, core.AvailableResources{})
		c.zero(&cfg)
		if _, err := NewManager(cfg); err == nil || !strings.Contains(err.Error(), "acm: "+c.field+" ") {
			t.Errorf("%s = 0: got error %v, want one naming it", c.field, err)
		}
		if filled := cfg.WithDefaults(); !reflect.DeepEqual(filled, smallConfig(1, core.AvailableResources{})) {
			t.Errorf("%s = 0: WithDefaults does not restore the default", c.field)
		}
	}
	// A GSLB config's replica count is a leaf like the others: 0 is
	// unfilled, and the fill writes the one replica, the central director.
	// Without a GSLB policy there is no director, and the fill leaves 0.
	if n := smallConfig(1, core.AvailableResources{}).GossipReplicas; n != 0 {
		t.Errorf("without GSLB the fill wrote GossipReplicas = %d, want 0", n)
	}
	cfg := smallConfig(1, core.AvailableResources{})
	cfg.GSLB = gslb.Config{Policy: gslb.PolicyLeastLoad}.WithDefaults()
	if _, err := NewManager(cfg); err == nil || err.Error() != "acm: GossipReplicas must be >= 1 with a GSLB policy configured, got 0" {
		t.Errorf("GossipReplicas = 0 with GSLB: got error %v, want one naming it", err)
	}
	if n := cfg.WithDefaults().GossipReplicas; n != 1 {
		t.Errorf("with GSLB the fill wrote GossipReplicas = %d, want 1", n)
	}
	if _, err := NewManager(cfg.WithDefaults()); err != nil {
		t.Errorf("filled GSLB config rejected: %v", err)
	}
}

// TestWithDefaultsIsAFixedPoint: a second fill changes nothing, keeps the
// -1 that switches the initial-age stagger off, and leaves the caller's
// Regions untouched.
func TestWithDefaultsIsAFixedPoint(t *testing.T) {
	cfg := Config{
		Regions:          []RegionSetup{{Region: cloudsim.RegionConfig{Name: "r", Type: cloudsim.M3Medium, InitialActive: 2}, Clients: 4}},
		InitialAgeSpread: -1,
		GossipReplicas:   3,
		GSLB:             gslb.Config{Policy: gslb.PolicyLeastLoad, CapacityThreshold: gslb.DisabledThreshold},
	}
	once := cfg.WithDefaults()
	if !reflect.DeepEqual(once.WithDefaults(), once) {
		t.Fatalf("a second fill moved the config:\n%+v\n%+v", once.WithDefaults(), once)
	}
	if once.InitialAgeSpread != -1 || once.GSLB.CapacityThreshold != gslb.DisabledThreshold {
		t.Fatalf("the fill rewrote a -1: InitialAgeSpread %v, CapacityThreshold %v", once.InitialAgeSpread, once.GSLB.CapacityThreshold)
	}
	if once.GossipInterval == 0 || once.GossipFanout == 0 {
		t.Fatalf("three replicas left the gossip tuning unfilled: %v, %d", once.GossipInterval, once.GossipFanout)
	}
	if cfg.Regions[0].Region.Shards != 0 {
		t.Fatal("WithDefaults wrote to the caller's Regions")
	}
	if one := (Config{}).WithDefaults(); one.GossipInterval != 0 || one.GossipFanout != 0 {
		t.Fatal("one replica sends no gossip, but the fill gave it gossip tuning")
	}
}
