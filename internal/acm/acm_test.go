package acm

import (
	"math"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/f2pm"
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
	}
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(Config{}); err == nil {
		t.Fatalf("a configuration with no regions should be rejected")
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
	if m.Loop() == nil || m.Plan() == nil || m.Overlay() == nil || m.Cluster() == nil {
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
	m, err := NewManager(cfg)
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
	if m.Plan().CrossRegionFraction() <= 0 {
		t.Fatalf("cross-region fraction should be positive, plan:\n%s", m.Plan())
	}
}

func TestManagerLeaderElectionAndFailover(t *testing.T) {
	m, err := NewManager(smallConfig(13, core.SensibleRouting{}))
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

	// Fail the leader controller mid-run and recover it later.
	m.InjectControllerFailure(10*simclock.Minute, initialLeader)
	m.InjectControllerRecovery(20*simclock.Minute, initialLeader)
	// Also fail one overlay link; the overlay must reroute without killing
	// the run.
	m.InjectLinkFailure(12*simclock.Minute, "region1", "region3")
	m.InjectLinkRecovery(18*simclock.Minute, "region1", "region3")

	if err := m.Run(30 * simclock.Minute); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if m.Cluster().Elections() < 5 {
		t.Fatalf("failures should have triggered re-elections, got %d", m.Cluster().Elections())
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
	m, err := NewManager(cfg)
	if err != nil {
		t.Fatalf("NewManager(ML): %v", err)
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
	m, err := NewManager(cfg)
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
	if _, err := NewManager(cfg); err == nil {
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
	terminated := met.Completed("") + met.Dropped("") + met.Timeouts("")
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
	m, err := NewManager(cfg)
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
	m, err := NewManager(cfg)
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
		m, err := NewManager(cfg)
		if err != nil {
			t.Fatalf("workers=%d: NewManager: %v", workers, err)
		}
		const cut = 15 * simclock.Minute
		m.InjectLinkFailure(cut, "east", "west")
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
