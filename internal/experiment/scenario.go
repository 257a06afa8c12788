// Package experiment defines the reproducible experiment harness: the
// scenarios matching the paper's evaluation section (Figure 3 with two
// regions, Figure 4 with three regions), the summary metrics used to judge
// the qualitative claims of Section VI-B (convergence, convergence speed,
// stability, response-time SLA), and the ablations the reproduction adds
// (β sweep, exploration-factor sweep, baseline policies, homogeneous
// regions).
package experiment

import (
	"errors"
	"fmt"

	"repro/internal/acm"
	"repro/internal/backend"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/gslb"
	"repro/internal/pcam"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// Scenario is a complete experiment configuration, independent of the policy
// under test (the policy is supplied when the scenario is run so that the
// same deployment can be evaluated under Policies 1–3 and the baselines).
type Scenario struct {
	// Name labels the scenario ("figure3", "figure4", ...).
	Name string
	// Config is the deployment the scenario realises.  Its Policy is
	// replaced by the policy under test when the scenario is run, and
	// neither Policy nor Overlay is part of a scenario file.
	acm.Config
	// Horizon is the simulated duration of one run.
	Horizon simclock.Duration
	// TailFraction is the fraction of the run treated as steady state when
	// judging convergence and oscillation (0.4 when zero).
	TailFraction float64
	// ConvergenceTolerance is the relative RMTTF spread below which the
	// regions are considered converged (0.3 when zero).
	ConvergenceTolerance float64
	// Backend names the implementation that realises the deployment: ""
	// and "sim" both select the simulator, the only one; any other value
	// is rejected with ErrUnknownBackend.  Kept so scenario files that
	// carry the key still load.
	Backend string
}

// ValidateBeta rejects smoothing factors that withDefaults would silently
// reset to acm.DefaultBeta, so sweeps, CLIs and scenario files never report
// a β they did not simulate.
func ValidateBeta(beta float64) error {
	if beta <= 0 || beta > 1 {
		return fmt.Errorf("experiment: beta %v outside (0, 1]", beta)
	}
	return nil
}

// withDefaults fills the experiment fields and records the β, control
// interval and predictor the deployment runs with.  The remaining
// acm.Config defaults are left to acm, so the scenario keeps the raw values
// its description and the benchmark probes read.
func (s Scenario) withDefaults() Scenario {
	if s.Horizon <= 0 {
		s.Horizon = 2 * simclock.Hour
	}
	if s.ControlInterval <= 0 {
		s.ControlInterval = acm.DefaultControlInterval
	}
	if s.Beta <= 0 || s.Beta > 1 {
		s.Beta = acm.DefaultBeta
	}
	if s.Predictor == "" {
		s.Predictor = acm.DefaultPredictor
	}
	if s.TailFraction <= 0 {
		s.TailFraction = 0.4
	}
	if s.ConvergenceTolerance <= 0 {
		s.ConvergenceTolerance = 0.3
	}
	return s
}

// ErrUnknownBackend is returned for a scenario whose Backend is neither ""
// nor "sim", the simulator; no other backend exists.
var ErrUnknownBackend = errors.New("experiment: unknown backend")

// checkBackend rejects a Backend other than the simulator.
func (s Scenario) checkBackend() error {
	if s.Backend != "" && s.Backend != "sim" {
		return fmt.Errorf("%w %q in scenario %q (only \"sim\" exists)", ErrUnknownBackend, s.Backend, s.Name)
	}
	return nil
}

// NewBackend builds a fresh deployment from the scenario and the policy.
// The policy is cloned first, so callers may reuse one NamedPolicy across
// concurrent runs even for stateful policies such as Policy 3.  A Scenario
// is plain data and every deployment built from one owns all of its state,
// so any number of them can be built from the same scenario and run
// concurrently.  The one exception is an Overlay set in code: it is a
// pointer, and those deployments share it.
func NewBackend(sc Scenario, np NamedPolicy) (backend.Backend, error) {
	sim, err := newSimulated(sc, np)
	if err != nil {
		return nil, err
	}
	return sim, nil
}

// NewManager is NewBackend unwrapped to the simulator, so the equivalence
// and determinism suites can keep scheduling through the engine.
func NewManager(sc Scenario, np NamedPolicy) (*acm.Manager, error) {
	sim, err := newSimulated(sc, np)
	if err != nil {
		return nil, err
	}
	return sim.Manager(), nil
}

func newSimulated(sc Scenario, np NamedPolicy) (*backend.Simulated, error) {
	if err := sc.checkBackend(); err != nil {
		return nil, err
	}
	sc = sc.withDefaults()
	cfg := sc.Config
	cfg.Policy = core.ClonePolicy(np.Policy)
	sim, err := backend.NewSimulated(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiment: scenario %s policy %s: %w", sc.Name, np.Key, err)
	}
	return sim, nil
}

// RegionNames returns the region names of the scenario in order.
func (s Scenario) RegionNames() []string {
	out := make([]string, len(s.Regions))
	for i, r := range s.Regions {
		out[i] = r.Region.Name
	}
	return out
}

// TotalClients returns the total number of emulated browsers.
func (s Scenario) TotalClients() int {
	n := 0
	for _, r := range s.Regions {
		n += r.Clients
	}
	return n
}

// EffectiveClients returns the total number of clients the scenario
// represents: individually simulated browsers (pinned, surge and global) plus
// every cohort-compressed client.
func (s Scenario) EffectiveClients() int {
	n := s.GlobalClients + s.CohortClients
	for _, r := range s.Regions {
		n += r.Clients + r.CohortClients
	}
	return n
}

// Figure3Scenario reproduces the first experiment of Section VI-B: a
// geographically distributed hybrid cloud composed of Region 1 (6 m3.medium
// VMs, Amazon EC2 Ireland) and Region 3 (4 private VMs, Munich), with
// client populations of significantly different sizes within the paper's
// [16, 512] range.
func Figure3Scenario(seed uint64) Scenario {
	return Scenario{
		Name: "figure3",
		Config: acm.Config{
			Seed: seed,
			Regions: []acm.RegionSetup{
				{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: 320, Mix: workload.BrowsingMix()},
				{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: 128, Mix: workload.BrowsingMix()},
			},
		},
	}.withDefaults()
}

// Figure4Scenario reproduces the second experiment of Section VI-B: all three
// regions (6 m3.medium in Ireland, 12 m3.small in Frankfurt, 4 private VMs in
// Munich) with again significantly different client populations.
func Figure4Scenario(seed uint64) Scenario {
	return Scenario{
		Name: "figure4",
		Config: acm.Config{
			Seed: seed,
			Regions: []acm.RegionSetup{
				{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: 288, Mix: workload.BrowsingMix()},
				{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion2), Clients: 96, Mix: workload.BrowsingMix()},
				{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: 256, Mix: workload.BrowsingMix()},
			},
		},
	}.withDefaults()
}

// HomogeneousScenario is the control experiment behind the paper's closing
// remark that "Policy 1 ... is more suitable for less-heterogeneous
// environments": three identical regions with identical client populations.
func HomogeneousScenario(seed uint64) Scenario {
	mkRegion := func(name string) cloudsim.RegionConfig {
		cfg := cloudsim.PaperRegionConfig(cloudsim.PaperRegion1)
		cfg.Name = name
		return cfg
	}
	return Scenario{
		Name: "homogeneous",
		Config: acm.Config{
			Seed: seed,
			Regions: []acm.RegionSetup{
				{Region: mkRegion("region1"), Clients: 192, Mix: workload.BrowsingMix()},
				{Region: mkRegion("region2"), Clients: 192, Mix: workload.BrowsingMix()},
				{Region: mkRegion("region3"), Clients: 192, Mix: workload.BrowsingMix()},
			},
		},
	}.withDefaults()
}

// ElasticityScenario exercises the ADDVMS elasticity action of Section V: a
// single region starts with a deliberately small active pool, a workload
// surge connects three times as many clients halfway through the run, and the
// per-region controller is expected to activate standby VMs (and provision
// new ones) to bring the response time back under the SLA.
func ElasticityScenario(seed uint64) Scenario {
	region := cloudsim.PaperRegionConfig(cloudsim.PaperRegion1)
	region.InitialActive = 3
	region.InitialStandby = 3
	region.MaxVMs = 18
	return Scenario{
		Name:    "elasticity",
		Horizon: 90 * simclock.Minute,
		Config: acm.Config{
			Seed: seed,
			Regions: []acm.RegionSetup{
				{
					Region:       region,
					Clients:      96,
					Mix:          workload.BrowsingMix(),
					SurgeClients: 288,
					SurgeAt:      30 * simclock.Minute,
				},
				{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: 64, Mix: workload.BrowsingMix()},
			},
			VMC: pcam.Config{
				ElasticityEnabled:     true,
				ResponseTimeThreshold: 1.0,
			},
		},
	}.withDefaults()
}

// The megaregion scenarios run a single 5x10^3-VM pool: well past the
// ~10^3-VM point where whole-pool scans dominate a run.
const (
	megaregionActive  = 4000
	megaregionStandby = 1000
	// MegaregionShards is the shard count of the 16-shard megaregion
	// scenarios (exported so CLIs and benchmarks quote the same number).
	MegaregionShards = 16
)

// megaregionScenario builds one region with a 5x10^3-VM pool split across the
// given number of engine shards.  The client
// population is sized to keep the run affordable in tests while still pushing
// hundreds of requests per second through the load balancer — the O(pool)
// per-request scan is precisely what sharding removes.
func megaregionScenario(name string, seed uint64, shards int) Scenario {
	region := cloudsim.RegionConfig{
		Name:           "megaregion",
		Provider:       "aws",
		Location:       "us-east-1 (N. Virginia)",
		Type:           cloudsim.M3Medium,
		InitialActive:  megaregionActive,
		InitialStandby: megaregionStandby,
		MaxVMs:         megaregionActive + megaregionStandby,
		Shards:         shards,
	}
	return Scenario{
		Name:    name,
		Horizon: 30 * simclock.Minute,
		Config: acm.Config{
			Seed: seed,
			Regions: []acm.RegionSetup{
				{Region: region, Clients: 2000, Mix: workload.BrowsingMix()},
			},
			VMC: pcam.Config{
				// At 5x10^3 VMs the per-VM request trickle keeps every predicted
				// RTTF far above the default 600 s threshold anyway; elasticity
				// stays off so the scenario isolates the dispatch/scan path that
				// sharding optimises.
				ElasticityEnabled: false,
			},
		},
	}.withDefaults()
}

// MegaregionScenario is the single-shard baseline: one region holding a
// 5x10^3-VM pool managed as one engine shard, the configuration whose
// whole-pool scans the sharded engine replaces.
func MegaregionScenario(seed uint64) Scenario {
	return megaregionScenario("megaregion", seed, 1)
}

// MegaregionEventLoopScenario is the same 5x10^3-VM region split across
// MegaregionShards engine shards, so per-request dispatch and the controller
// scans touch pool/16 VMs instead of the whole pool, with the event loop
// fanned out: every shard runs as its own sub-engine servicing its arrivals,
// completions and rejuvenation timers in parallel (one goroutine per shard),
// with the control tick also fanned out over the same workers at the epoch
// barriers.  Its results are byte-identical for every EventWorkers at any
// GOMAXPROCS (the event-loop equivalence suite pins that).
func MegaregionEventLoopScenario(seed uint64) Scenario {
	sc := megaregionScenario("megaregion-eventloop", seed, MegaregionShards)
	sc.EventWorkers = MegaregionShards
	return sc
}

// Figure4EventLoopScenario is the figure4 deployment with every region split
// across 3 engine shards and the event loop fanned out: the richest
// cross-shard traffic the repo has (three heterogeneous regions, the global
// forward plan continuously redirecting requests between them, standby
// promotions and reactive recoveries crossing shards through mailboxes).
// It is the determinism workhorse of the parallel event loop: the
// equivalence suite runs it at EventWorkers 1, 4 and GOMAXPROCS and demands
// byte-identical output.
func Figure4EventLoopScenario(seed uint64) Scenario {
	sc := Figure4Scenario(seed)
	sc.Name = "figure4-eventloop"
	for i := range sc.Regions {
		sc.Regions[i].Region.Shards = 3
	}
	sc.EventWorkers = 4
	return sc
}

// MegaclientsScenario is the cohort-compression showcase: 10^6 effective
// clients on the 16-shard megaregion, where simulating a browser state
// machine per client would be ~500x today's largest population.  The cohort
// represents the clients as counted (mix-state, think-phase) buckets split
// per tick by binomial draws and submits MaxBatch-sized batched requests, so
// event volume scales with batches per tick, not clients; a 1% tracer
// sub-population (10^4 real browsers) feeds the response-time series.  The
// think time is stretched to 60 s to keep the 10^6-client offered load
// (~16.7k interactions/s) within the 4x10^3-VM pool's capacity, mirroring
// how real mega-populations are mostly idle at any instant.
func MegaclientsScenario(seed uint64) Scenario {
	sc := megaregionScenario("megaclients", seed, MegaregionShards)
	sc.EventWorkers = MegaregionShards
	sc.Regions[0].Clients = 0
	sc.Regions[0].CohortClients = 1_000_000
	sc.ThinkTime = 60 * simclock.Second
	sc.CohortMaxBatch = 128
	return sc.withDefaults()
}

// GlobalMegaclientsScenario spreads 1.2x10^6 cohort-compressed clients over
// the global traffic director: three 10^3-VM regions, least-load routing
// re-weighted every 15 s, and a small pinned browser population per region so
// the forward-plan machinery stays exercised alongside the director.  The
// cohort batches ride the per-lane GSLB dispatchers like global browsers do,
// so routing, failover state and cross-lane mailbox traffic all see
// million-client load.
func GlobalMegaclientsScenario(seed uint64) Scenario {
	mkRegion := func(name string) cloudsim.RegionConfig {
		return cloudsim.RegionConfig{
			Name:           name,
			Provider:       "aws",
			Location:       "us-east-1 (N. Virginia)",
			Type:           cloudsim.M3Medium,
			InitialActive:  800,
			InitialStandby: 200,
			MaxVMs:         1000,
			Shards:         8,
		}
	}
	return Scenario{
		Name:    "global-megaclients",
		Horizon: 30 * simclock.Minute,
		Config: acm.Config{
			Seed: seed,
			Regions: []acm.RegionSetup{
				{Region: mkRegion("region1"), Clients: 32, Mix: workload.BrowsingMix()},
				{Region: mkRegion("region2"), Clients: 32, Mix: workload.BrowsingMix()},
				{Region: mkRegion("region3"), Clients: 32, Mix: workload.BrowsingMix()},
			},
			CohortClients:  1_200_000,
			ThinkTime:      60 * simclock.Second,
			CohortMaxBatch: 128,
			EventWorkers:   8,
			GSLB: gslb.Config{
				Policy: gslb.PolicyLeastLoad,
			},
			VMC: pcam.Config{
				ElasticityEnabled: false,
			},
		},
	}.withDefaults()
}

// globalRegions is the shared deployment of the global-* scenarios: the
// three paper regions, each keeping a small pinned client population so the
// classic forward-plan machinery stays exercised alongside the director.
func globalRegions() []acm.RegionSetup {
	return []acm.RegionSetup{
		{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: 32, Mix: workload.BrowsingMix()},
		{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion2), Clients: 32, Mix: workload.BrowsingMix()},
		{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: 32, Mix: workload.BrowsingMix()},
	}
}

// GlobalFailoverScenario exercises health-driven failover: 256 global
// clients enter through the director's failover policy (preference region1 >
// region2 > region3) while a scripted outage blacks region1 out between
// minutes 10 and 20.  The probe drains region1 within two 15-second
// samples, traffic fails over to region2, and once the controller
// repromotes region1's pool after the outage the director fails back —
// all of it pinned down to the byte by the scenario golden (per-region
// routed counts plus the health-transition log).
func GlobalFailoverScenario(seed uint64) Scenario {
	return Scenario{
		Name: "global-failover",
		Config: acm.Config{
			Seed:          seed,
			Regions:       globalRegions(),
			GlobalClients: 256,
			GSLB: gslb.Config{
				Policy:     gslb.PolicyFailover,
				Preference: []string{"region1", "region2", "region3"},
			},
			Faults: []acm.RegionFault{
				{Region: "region1", At: 10 * simclock.Minute, Duration: 10 * simclock.Minute, KeepActive: 0},
			},
		},
	}.withDefaults()
}

// GlobalLeastLoadScenario routes 192 global clients by probed region
// capacity: the least-load policy re-weights every 15 seconds as
// rejuvenations, failures and recoveries move each region's healthy-state
// capacity, so traffic continuously follows where the resources are.
func GlobalLeastLoadScenario(seed uint64) Scenario {
	return Scenario{
		Name: "global-leastload",
		Config: acm.Config{
			Seed:          seed,
			Regions:       globalRegions(),
			GlobalClients: 192,
			GSLB: gslb.Config{
				Policy: gslb.PolicyLeastLoad,
			},
		},
	}.withDefaults()
}

// GlobalDiurnalScenario models time-varying global traffic: three
// region-pinned inhomogeneous-Poisson streams ("americas", "europe",
// "asia") whose sinusoidal rates peak a third of a cycle apart — each
// region's entry load crests at a different time — plus a globally attached
// piecewise "mobile" stream and 96 global browsers split by the
// static-weight policy.  The rotating peaks are exactly the workload the
// forward plan and the director have to keep absorbing together.
func GlobalDiurnalScenario(seed uint64) Scenario {
	diurnal := func(phase simclock.Duration) workload.RateSpec {
		return workload.RateSpec{
			Kind:      workload.RateSinusoid,
			Base:      6,
			Amplitude: 4,
			Period:    1 * simclock.Hour,
			Phase:     phase,
		}
	}
	return Scenario{
		Name: "global-diurnal",
		Config: acm.Config{
			Seed:          seed,
			Regions:       globalRegions(),
			GlobalClients: 96,
			GSLB: gslb.Config{
				Policy:  gslb.PolicyStatic,
				Weights: []float64{0.45, 0.30, 0.25},
			},
			Arrivals: []acm.ArrivalSetup{
				{Name: "americas", Region: "region1", Rate: diurnal(0)},
				{Name: "europe", Region: "region2", Rate: diurnal(20 * simclock.Minute)},
				{Name: "asia", Region: "region3", Rate: diurnal(40 * simclock.Minute)},
				{Name: "mobile", Rate: workload.RateSpec{
					Kind: workload.RatePiecewise,
					Steps: []workload.RateStep{
						{Duration: 10 * simclock.Minute, Rate: 4},
						{Duration: 10 * simclock.Minute, Rate: 12},
						{Duration: 10 * simclock.Minute, Rate: 2},
					},
				}},
			},
		},
	}.withDefaults()
}

// GlobalLatencyScenario exercises latency-aware geo routing: three globally
// attached constant arrival streams ("americas", "europe", "asia") enter
// through the director with asymmetric per-region RTT rows, plus 96 global
// browsers on a uniform 60 ms row.  The latency policy weights each region by
// healthy capacity over squared learned RTT, so every stream concentrates on
// its nearby regions while the passive estimator keeps re-confirming the
// seeded matrix from observed completions.
func GlobalLatencyScenario(seed uint64) Scenario {
	constant := func(rate float64) workload.RateSpec {
		return workload.RateSpec{Kind: workload.RateConstant, Rate: rate}
	}
	return Scenario{
		Name: "global-latency",
		Config: acm.Config{
			Seed:          seed,
			Regions:       globalRegions(),
			GlobalClients: 96,
			GSLB: gslb.Config{
				Policy:          gslb.PolicyLatency,
				LatencyExponent: 2,
				RTT: map[string][]float64{
					"global":   {60, 60, 60},
					"americas": {80, 140, 160},
					"europe":   {120, 30, 40},
					"asia":     {240, 180, 160},
				},
			},
			Arrivals: []acm.ArrivalSetup{
				{Name: "americas", Rate: constant(8)},
				{Name: "europe", Rate: constant(8)},
				{Name: "asia", Rate: constant(8)},
			},
		},
	}.withDefaults()
}

// GlobalCableCutScenario is GlobalLatencyScenario plus a scripted cable cut:
// at minute 12 the americas-to-region1 path's RTT doubles for the rest of the
// run.  The director is never told — it learns purely from observed request
// completions, so over the following probe ticks the americas EWMA for
// region1 climbs toward the new 160 ms ground truth and the stream's traffic
// shifts to region2/region3.  The golden pins the routed-count shift and the
// gslb_rtt series byte-for-byte.
func GlobalCableCutScenario(seed uint64) Scenario {
	s := GlobalLatencyScenario(seed)
	s.Name = "global-cablecut"
	s.LinkFaults = []acm.LinkFault{
		{Stream: "americas", Region: "region1", At: 12 * simclock.Minute, Factor: 2},
	}
	return s.withDefaults()
}

// GlobalTracedScenario is GlobalLatencyScenario with the observability plane
// switched on: every region runs two engine shards (so routing crosses lanes
// and shard hops appear in traces), 2% of every stream's requests are sampled
// into the span layer, and the flight recorder keeps per-epoch per-shard
// utilization.  The golden pins the exported Chrome trace bytes across
// EventWorkers {0, 1, 4, GOMAXPROCS}: tracing rides the deterministic request
// path, so the traces — not just the summary — are part of the byte contract.
func GlobalTracedScenario(seed uint64) Scenario {
	s := GlobalLatencyScenario(seed)
	s.Name = "global-traced"
	for i := range s.Regions {
		s.Regions[i].Region.Shards = 2
	}
	s.TraceSampleFraction = 0.02
	s.FlightRecorder = true
	return s.withDefaults()
}

// GlobalGossipScenario exercises the replicated health plane under churn:
// 192 global clients route by least load through three director replicas
// that only share health via 10-second push-pull gossip rounds, while two
// staggered partial outages (region2 minutes 8-14, region3 minutes 18-24)
// keep the owned views changing.  Each request lane is homed to one replica,
// so routing reflects three slightly divergent views whose drift and
// re-convergence the gossip_convergence series pins byte-for-byte.
func GlobalGossipScenario(seed uint64) Scenario {
	return Scenario{
		Name: "global-gossip",
		Config: acm.Config{
			Seed:          seed,
			Regions:       globalRegions(),
			GlobalClients: 192,
			GSLB: gslb.Config{
				Policy: gslb.PolicyLeastLoad,
			},
			GossipReplicas: 3,
			GossipInterval: 10 * simclock.Second,
			Faults: []acm.RegionFault{
				{Region: "region2", At: 8 * simclock.Minute, Duration: 6 * simclock.Minute, KeepActive: 2},
				{Region: "region3", At: 18 * simclock.Minute, Duration: 6 * simclock.Minute, KeepActive: 1},
			},
		},
	}.withDefaults()
}

// GlobalPartitionScenario is the split-brain experiment the central director
// cannot express: replica 2 is partitioned away from minutes 8 to 18, and
// region1 (whose health only replica 0 probes) blacks out from minutes 10 to
// 20.  The majority side drains region1 and fails over to region2 within two
// probes; the isolated replica's view stays frozen at "region1 healthy", so
// the lanes homed to it keep routing a third of the traffic into the
// blacked-out region until the partition heals and two gossip rounds pull
// the drain across.  The golden pins the divergence ramp in the
// gossip_convergence series and the routed counts that keep climbing for a
// dead region.
func GlobalPartitionScenario(seed uint64) Scenario {
	return Scenario{
		Name: "global-partition",
		Config: acm.Config{
			Seed:          seed,
			Regions:       globalRegions(),
			GlobalClients: 256,
			GSLB: gslb.Config{
				Policy:     gslb.PolicyFailover,
				Preference: []string{"region1", "region2", "region3"},
			},
			GossipReplicas: 3,
			GossipInterval: 10 * simclock.Second,
			PartitionFaults: []acm.PartitionFault{
				{At: 8 * simclock.Minute, Duration: 10 * simclock.Minute, Replicas: []int{2}},
			},
			Faults: []acm.RegionFault{
				{Region: "region1", At: 10 * simclock.Minute, Duration: 10 * simclock.Minute, KeepActive: 0},
			},
		},
	}.withDefaults()
}

// GlobalStaleViewScenario overloads a recovering region with stale healthy
// views: gossip rounds are slow (40 s) and lossy (25%), so when region1
// shrinks to a single VM between minutes 6 and 14, only its owning replica
// reacts quickly — the other two keep routing their lanes' full least-load
// share at a region that can no longer take it, and after the outage the
// drain/recovery states propagate just as sluggishly.  The gap between the
// owner's view and the laggards' is exactly what the gossip_convergence
// series and the drop counts pin.
func GlobalStaleViewScenario(seed uint64) Scenario {
	return Scenario{
		Name: "global-staleview",
		Config: acm.Config{
			Seed:          seed,
			Regions:       globalRegions(),
			GlobalClients: 192,
			GSLB: gslb.Config{
				Policy: gslb.PolicyLeastLoad,
			},
			GossipReplicas: 3,
			GossipInterval: 40 * simclock.Second,
			GossipLoss:     0.25,
			GossipDelay:    2 * simclock.Second,
			Faults: []acm.RegionFault{
				{Region: "region1", At: 6 * simclock.Minute, Duration: 8 * simclock.Minute, KeepActive: 1},
			},
		},
	}.withDefaults()
}

// Policies returns the three policies of the paper keyed by the short names
// used throughout the reproduction, in presentation order.
func Policies() []NamedPolicy {
	return []NamedPolicy{
		{Key: "policy1", Label: "Policy 1 (sensible routing)", Policy: core.SensibleRouting{}},
		{Key: "policy2", Label: "Policy 2 (available resources)", Policy: core.AvailableResources{}},
		{Key: "policy3", Label: "Policy 3 (exploration)", Policy: &core.Exploration{K: 1}},
	}
}

// NamedPolicy couples a policy with the identifiers used in reports.
type NamedPolicy struct {
	Key    string
	Label  string
	Policy core.Policy
}

// PolicyByKey returns the named policy for "policy1", "policy2", "policy3",
// "uniform" or "static:<w1,w2,...>"-style keys handled by core.ByName.
func PolicyByKey(key string) (NamedPolicy, error) {
	for _, np := range Policies() {
		if np.Key == key {
			return np, nil
		}
	}
	p, err := core.ByName(key)
	if err != nil {
		return NamedPolicy{}, fmt.Errorf("experiment: %w", err)
	}
	return NamedPolicy{Key: key, Label: p.Name(), Policy: p}, nil
}
