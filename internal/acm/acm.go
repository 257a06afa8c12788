// Package acm assembles the full Autonomic Cloud Manager: the cloud regions
// and their VMs (cloudsim), the per-region Virtual Machine Controllers with
// proactive rejuvenation (pcam), the ML-based RTTF prediction models (f2pm),
// the overlay network interconnecting the controllers (overlay), the leader
// election among them (election), the TPC-W client populations (workload) and
// the leader-side closed control loop with the load-balancing policies
// (core).  A Manager owns one simulated deployment and runs it on the
// discrete-event engine, producing the time series (RMTTF, workload fractions
// f_i, client response time) that the paper's figures plot.
package acm

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/election"
	"repro/internal/f2pm"
	"repro/internal/gossip"
	"repro/internal/gslb"
	"repro/internal/overlay"
	"repro/internal/pcam"
	"repro/internal/simclock"
	"repro/internal/trace"
	"repro/internal/tracing"
	"repro/internal/validate"
	"repro/internal/workload"
)

// PredictorMode selects how the VMCs estimate the RTTF of their VMs.
type PredictorMode string

const (
	// PredictorOracle uses the simulator's ground truth (a perfect ML model).
	// It is the default for the figure experiments: the paper's focus is the
	// load-balancing policies, not prediction accuracy.
	PredictorOracle PredictorMode = "oracle"
	// PredictorML trains an F2PM REP-Tree model per instance type on a
	// synthetic profiling run and uses it at runtime, reproducing the full
	// F2PM -> PCAM -> ACM pipeline.
	PredictorML PredictorMode = "ml"
)

// RegionSetup couples a region configuration with the client population
// connected to it.
type RegionSetup struct {
	// Region is the cloud region configuration.
	Region cloudsim.RegionConfig
	// Clients is the number of emulated browsers connected to this region's
	// load balancer (the paper varies this in [16, 512] per region).
	Clients int `domain:">=0"`
	// CohortClients attaches this many cohort-compressed clients to the
	// region in addition to Clients: counted state buckets split by binomial
	// draws instead of per-client state machines, so populations of 10^6+
	// effective clients cost events proportional to their batch count.  A
	// TracerFraction of them is simulated individually to feed the
	// response-time series (see Config.TracerFraction).
	CohortClients int `domain:">=0"`
	// Mix is the TPC-W mix of those clients (the browsing mix when
	// zero-valued; workload fills it).
	Mix workload.Mix
	// SurgeClients optionally adds this many extra browsers once SurgeAt is
	// reached, modelling the global workload increase of Section V that the
	// ADDVMS elasticity action responds to.
	SurgeClients int `domain:">=0"`
	// SurgeAt is the simulated time at which the surge population connects.
	SurgeAt simclock.Duration `domain:">=0"`
}

// Config describes a complete ACM deployment.  Every field except Policy is
// plain data, so a Config round-trips through JSON (experiment scenario
// files embed it).  NewManager runs a Config as given: WithDefaults fills
// each 0 (and the nil Policy) that a field's comment says selects a
// default, and a Config that skipped it is rejected by the field's name.
type Config struct {
	// Seed drives every random stream of the simulation.
	Seed uint64 `domain:">=0"`
	// Regions lists the cloud regions and their client populations.
	Regions []RegionSetup
	// Policy is the load-balancing policy run by the leader VMC
	// (WithDefaults fills nil with Policy 2, core.AvailableResources).
	Policy core.Policy `json:"-"`
	// Beta is the smoothing factor of equation (1) (WithDefaults fills 0
	// with 0.5).
	Beta float64 `domain:"(0,1]"`
	// ControlInterval is the period of the global closed control loop (one
	// era per interval; WithDefaults fills 0 with 60 s).
	ControlInterval simclock.Duration `domain:">0"`
	// VMC configures the per-region controllers (pcam.Config.WithDefaults
	// fills its zeros).
	VMC pcam.Config
	// Predictor selects oracle or ML-based RTTF prediction (WithDefaults
	// fills "" with oracle).
	Predictor PredictorMode
	// ThinkTime is the emulated browsers' mean think time (WithDefaults
	// fills 0 with TPC-W's 7 s).
	ThinkTime simclock.Duration `domain:">0"`
	// MLProfile is the profiling configuration used when Predictor is
	// PredictorML (f2pm.ProfileConfig.WithDefaults fills its zeros).  Each
	// region's instance type is profiled, so its Instance must stay unset.
	MLProfile f2pm.ProfileConfig
	// InitialAgeSpread staggers the initial anomaly state of each region's
	// active VMs across [0, InitialAgeSpread) of their failure budget, so
	// that rejuvenation points do not all align (the paper's testbed VMs had
	// been running before the measurements started).  -1 disables the
	// stagger; WithDefaults fills 0 with 0.5.
	InitialAgeSpread float64 `domain:">0|-1"`
	// EventWorkers is the upper bound on the worker count of the sharded
	// event loop (see eventloop.go): every region shard is its own
	// sub-engine and the shard loops run in lockstep epochs.  With more than
	// one worker, the engine runs each epoch's shard loops either on a pool
	// of EventWorkers goroutines or inline on one, whichever it measures
	// cheaper per event (simclock's fan-out selector).  The control tick's
	// per-shard phase runs on that pool whenever it exists.  The output is
	// byte-identical across all worker counts; WithDefaults fills 0 with 1,
	// the inline run.
	EventWorkers int `domain:">0"`
	// EventEpoch is the lockstep epoch width of the sharded event loop
	// (WithDefaults fills 0 with simclock.DefaultEpoch).  Cross-shard
	// mailbox traffic is delivered at epoch barriers; periodic controllers
	// still fire at their exact timestamps.
	EventEpoch simclock.Duration `domain:">0"`
	// GSLB enables the global traffic director: a gslb.Director sits between
	// globally attached client populations and the regions, routing each
	// request according to the configured policy and a health probe sampled
	// on the control timeline.  An empty Policy disables it;
	// gslb.Config.WithDefaults fills its other zeros either way.
	GSLB gslb.Config
	// GlobalClients is the number of emulated browsers attached to the
	// director instead of a fixed region; their requests enter whichever
	// region the routing policy picks.  Requires GSLB to be enabled.
	GlobalClients int `domain:">=0"`
	// GlobalMix is the interaction mix of the global clients (browsing when
	// zero-valued).
	GlobalMix workload.Mix
	// CohortClients attaches this many cohort-compressed clients to the
	// director (the global analogue of RegionSetup.CohortClients).  Requires
	// GSLB to be enabled.
	CohortClients int `domain:">=0"`
	// TracerFraction is the fraction of every cohort simulated as individual
	// tracer browsers feeding the per-request latency series (WithDefaults
	// fills 0 with 0.01).
	TracerFraction float64 `domain:"(0,1]"`
	// CohortTick is the cohorts' state-split cadence (WithDefaults fills 0
	// with 1 s).
	CohortTick simclock.Duration `domain:">0"`
	// CohortMaxBatch caps the interactions one batched request stands for
	// (WithDefaults fills 0 with 64).
	CohortMaxBatch int `domain:">0"`
	// Arrivals lists open-loop (optionally time-varying, inhomogeneous-
	// Poisson) request streams: pinned to one region's entry load balancer
	// when Region is set, attached to the director otherwise.
	Arrivals []ArrivalSetup
	// Faults is the scripted region-outage schedule (see RegionFault), the
	// stimulus the director's health-driven failover responds to.
	Faults []RegionFault
	// LinkFaults is the scripted network-path degradation schedule (see
	// LinkFault), the stimulus the director's passive latency learning
	// responds to.  Requires a latency-aware GSLB configuration.
	LinkFaults []LinkFault
	// GossipReplicas is the replica count of the health plane
	// (internal/gossip).  With N >= 2 replicated directors exchange health
	// over simulated gossip, and each request lane routes on its home
	// replica's eventually-consistent view (lane g reads replica g mod N).
	// 1 is one replica, the central director; with a GSLB policy set,
	// WithDefaults fills 0 with 1, and without one it stays 0.  N >= 2
	// requires GSLB to be enabled and is incompatible with the latency
	// policy and RTT matrices (their passive estimators learn from every
	// lane).
	GossipReplicas int `domain:">=0"`
	// GossipInterval is the gossip round period on the control timeline
	// (WithDefaults fills 0 with 10 s).  Requires GossipReplicas >= 2, like
	// every gossip tuning field below; with fewer, the fill leaves it 0.
	GossipInterval simclock.Duration `domain:">=0"`
	// GossipFanout is how many peers each replica pushes to per round
	// (WithDefaults fills 0 with 1).
	GossipFanout int `domain:">=0"`
	// GossipDelay is the per-message link delay of the gossip plane; a push
	// always takes at least one round to arrive.
	GossipDelay simclock.Duration `domain:">=0"`
	// GossipLoss is the per-message Bernoulli loss probability in [0, 1).
	GossipLoss float64 `domain:"[0,1)"`
	// PartitionFaults scripts replica-set splits of the gossip plane on the
	// control timeline (see PartitionFault).  Requires GossipReplicas >= 2.
	PartitionFaults []PartitionFault
	// ControllerFaults scripts region-controller failures (see
	// ControllerFault), the stimulus the leader election responds to.
	ControllerFaults []ControllerFault
	// OverlayFaults scripts overlay-link failures (see OverlayFault), the
	// stimulus the overlay's rerouting responds to.
	OverlayFaults []OverlayFault
	// TraceSampleFraction enables the deterministic request-span layer
	// (internal/tracing): this fraction of every client stream's requests is
	// sampled into per-request traces spanning issue, routing, mailbox hops,
	// queueing, service and completion.  The sampling decision and all span
	// IDs are pure functions of (Seed, stream, request ID), so the trace set
	// is byte-identical for every EventWorkers value and tracing never
	// perturbs the simulation (no engine RNG draws, no extra events).  Must
	// lie in [0, 1]; zero disables tracing entirely.
	TraceSampleFraction float64 `domain:"[0,1]"`
	// FlightRecorder enables the engine flight recorder: per-epoch per-shard
	// busy/idle/mailbox-drain accounting in sim-time plus control-tick phase
	// timings, recorded at epoch barriers on the control timeline.
	FlightRecorder bool
}

// WithDefaults returns a copy with each zero (and the nil Policy) that a
// field's comment says selects a default filled, sub-configs by their own
// WithDefaults.  Gossip tuning is filled only with GossipReplicas >= 2, and
// a -1 stays -1, so a second fill changes nothing.  experiment applies it to
// every scenario; a Config built by hand goes through it before NewManager.
func (c Config) WithDefaults() Config {
	if c.Policy == nil {
		c.Policy = core.AvailableResources{}
	}
	c.Beta = cmp.Or(c.Beta, 0.5)
	c.ControlInterval = cmp.Or(c.ControlInterval, 60*simclock.Second)
	c.Predictor = cmp.Or(c.Predictor, PredictorOracle)
	c.ThinkTime = cmp.Or(c.ThinkTime, 7*simclock.Second)
	c.InitialAgeSpread = cmp.Or(c.InitialAgeSpread, 0.5)
	c.TracerFraction = cmp.Or(c.TracerFraction, 0.01)
	c.EventWorkers = cmp.Or(c.EventWorkers, 1)
	c.EventEpoch = cmp.Or(c.EventEpoch, simclock.DefaultEpoch)
	c.CohortTick = cmp.Or(c.CohortTick, simclock.Second)
	c.CohortMaxBatch = cmp.Or(c.CohortMaxBatch, 64)
	if c.GSLB.Enabled() {
		c.GossipReplicas = cmp.Or(c.GossipReplicas, 1)
	}
	if c.GossipReplicas >= 2 {
		c.GossipInterval = cmp.Or(c.GossipInterval, 10*simclock.Second)
		c.GossipFanout = cmp.Or(c.GossipFanout, 1)
	}
	c.VMC = c.VMC.WithDefaults()
	c.GSLB = c.GSLB.WithDefaults()
	c.MLProfile = c.MLProfile.WithDefaults()
	c.Regions = slices.Clone(c.Regions)
	for i := range c.Regions {
		c.Regions[i].Region = c.Regions[i].Region.WithDefaults()
	}
	return c
}

// Manager is one assembled ACM deployment.
type Manager struct {
	cfg Config
	eng *simclock.Engine // the event loop's control timeline

	regions     []*cloudsim.Region
	regionNames []string
	regionIndex map[string]int
	vmcs        []*pcam.VMC // indexed like regionNames
	el          *eventLoop
	net         *overlay.Network
	cluster     *election.Cluster
	loop        *core.Loop
	plan        *core.ForwardPlan
	recorder    *trace.Recorder
	models      map[string]*f2pm.Model   // per instance type, when PredictorML
	plane       *gossip.Plane            // health plane; non-nil when GSLB is enabled
	tracer      *tracing.Tracer          // non-nil when TraceSampleFraction > 0
	flight      *simclock.FlightRecorder // non-nil when Config.FlightRecorder
	mm          *managerMetrics
	stopProbe   func()
	stopGossip  func()

	// interval accounting for λ, entry shares and the response-time series
	prevIssued    map[string]uint64
	prevIssuedAll uint64
	prevRespCount uint64
	prevRespTotal float64

	// counters
	eras            uint64
	controlMessages uint64
	stopLoop        func()
}

// NewManager builds the deployment from a complete Config (see
// WithDefaults).  It first rejects, by dotted path, any numeric field
// outside its declared domain, so an unfilled Config fails by the name of
// its first zero.  It trains the ML predictors up front when PredictorML is
// selected (the paper's initial profiling phase).
func NewManager(cfg Config) (*Manager, error) {
	if err := validate.Struct("acm", &cfg); err != nil {
		return nil, err
	}
	if cfg.Policy == nil {
		return nil, validate.Fieldf("acm", "Policy", "is nil")
	}
	if cfg.MLProfile.Instance != (cloudsim.InstanceType{}) {
		return nil, validate.Fieldf("acm", "MLProfile.Instance", "is set to %q, but the predictors profile each region's own instance type; leave it unset", cfg.MLProfile.Instance.Name)
	}
	if len(cfg.Regions) == 0 {
		return nil, fmt.Errorf("acm: no regions configured")
	}
	m := &Manager{
		cfg:        cfg,
		recorder:   trace.NewRecorder(),
		models:     map[string]*f2pm.Model{},
		prevIssued: map[string]uint64{},
	}
	// The span layer's seed stream is forked from the deployment seed, so
	// trace IDs never collide with any engine or workload RNG stream.
	if cfg.TraceSampleFraction > 0 {
		m.tracer = tracing.NewTracer(simclock.DeriveSeed(cfg.Seed^hashString("tracing")), cfg.TraceSampleFraction)
	}

	// Train per-instance-type prediction models first if requested.
	if cfg.Predictor == PredictorML {
		if err := m.trainModels(); err != nil {
			return nil, err
		}
	}

	// Build regions and controllers; the client populations are built per
	// shard with the event loop below.
	names := make([]string, 0, len(cfg.Regions))
	for i, rs := range cfg.Regions {
		rng := simclock.NewRNG(cfg.Seed + uint64(i)*104729 + 13)
		region := cloudsim.NewRegion(rs.Region, rng)
		m.regions = append(m.regions, region)
		names = append(names, region.Name())

		// Stagger the initial ageing of the active VMs so their rejuvenation
		// points spread over time instead of arriving as a synchronised wave.
		if cfg.InitialAgeSpread > 0 {
			actives := region.ActiveVMs()
			for j, vm := range actives {
				vm.PreAge(cfg.InitialAgeSpread * float64(j) / float64(len(actives)))
			}
		}

		predictor, err := m.predictorFor(region)
		if err != nil {
			return nil, err
		}
		vmc, err := pcam.NewVMC(region, predictor, cfg.VMC)
		if err != nil {
			return nil, fmt.Errorf("acm: region %s: %w", region.Name(), err)
		}
		m.vmcs = append(m.vmcs, vmc)
	}
	m.regionNames = names
	m.regionIndex = map[string]int{}
	for i, name := range names {
		m.regionIndex[name] = i
	}

	// The controller overlay: the fault schedule names its nodes and links.
	m.net = defaultOverlay(names)

	// Global-traffic wiring: validate the global and fault configuration
	// and build the traffic director.  The per-lane global populations and
	// arrival streams are assembled with the event loop below.
	if err := m.validateGlobal(); err != nil {
		return nil, err
	}
	if err := m.validateFaults(); err != nil {
		return nil, err
	}
	if err := m.buildDirector(); err != nil {
		return nil, err
	}
	// The instrument families depend on the plane's shape, so the
	// registry is assembled right after the global wiring.
	m.buildMetrics()

	// Leader election among the controllers.
	members := make([]election.Member, 0, len(names))
	for _, r := range m.regions {
		members = append(members, election.Member{Name: r.Name(), Priority: len(r.VMs())})
	}
	cluster, err := election.NewCluster(m.net, members)
	if err != nil {
		return nil, fmt.Errorf("acm: leader election: %w", err)
	}
	m.cluster = cluster

	// Leader-side closed control loop.
	loop, err := core.NewLoop(names, cfg.Policy, cfg.Beta)
	if err != nil {
		return nil, fmt.Errorf("acm: control loop: %w", err)
	}
	m.loop = loop

	// Initial forward plan: process where you arrive.
	entry := m.entrySharesFromClients()
	plan, err := core.BuildForwardPlan(names, entry, entry)
	if err != nil {
		return nil, err
	}
	m.plan = plan

	// Assemble the sharded event loop last: it needs the regions, VMCs,
	// overlay and initial plan.  The control timeline becomes the Manager's
	// engine, so the fault windows and the control-era ticker land on the
	// timeline that fires at epoch barriers.
	m.el = newEventLoop(m)
	m.eng = m.el.se.Control()
	if cfg.FlightRecorder {
		// The recorder is written only at epoch barriers and control ticks,
		// so attaching it never adds events or synchronisation to the shard
		// loops.
		m.flight = simclock.NewFlightRecorder(m.el.total)
		m.el.se.SetFlightRecorder(m.flight)
		for _, vmc := range m.vmcs {
			vmc.SetFlightRecorder(m.flight)
		}
	}
	return m, nil
}

// defaultOverlay returns the paper overlay when the deployment uses (a subset
// of) the paper's region names, otherwise a fully connected mesh with uniform
// 20 ms links.
func defaultOverlay(names []string) *overlay.Network {
	paper := map[string]bool{"region1": true, "region2": true, "region3": true}
	allPaper := true
	for _, n := range names {
		if !paper[n] {
			allPaper = false
			break
		}
	}
	if allPaper {
		return overlay.PaperOverlay()
	}
	net := overlay.New()
	for i, a := range names {
		for _, b := range names[i+1:] {
			_ = net.AddLink(a, b, 20)
		}
	}
	return net
}

// trainModels runs the F2PM profiling + training pipeline once per distinct
// instance type in the deployment.
func (m *Manager) trainModels() error {
	types := map[string]cloudsim.InstanceType{}
	for _, rs := range m.cfg.Regions {
		types[rs.Region.Type.Name] = rs.Region.Type
	}
	names := make([]string, 0, len(types))
	for n := range types {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		pcfg := m.cfg.MLProfile
		pcfg.Instance = types[n]
		if pcfg.Seed == 0 {
			pcfg.Seed = m.cfg.Seed + 7000 + uint64(i)
		}
		model, _, err := f2pm.TrainFromProfile(pcfg, f2pm.DefaultConfig())
		if err != nil {
			return fmt.Errorf("acm: training predictor for %s: %w", n, err)
		}
		m.models[n] = model
	}
	return nil
}

// predictorFor returns the RTTF predictor for a region according to the
// configured mode.
func (m *Manager) predictorFor(region *cloudsim.Region) (pcam.RTTFPredictor, error) {
	switch m.cfg.Predictor {
	case PredictorOracle:
		return pcam.OraclePredictor{}, nil
	case PredictorML:
		model, ok := m.models[region.Config().Type.Name]
		if !ok {
			return nil, fmt.Errorf("acm: no trained model for instance type %s", region.Config().Type.Name)
		}
		return pcam.ModelPredictor{Model: model}, nil
	default:
		return nil, fmt.Errorf("acm: unknown predictor mode %q", m.cfg.Predictor)
	}
}

// forwardLeg applies plan to a request entering region index from, u being
// the dispatcher's uniform draw.  A request the plan keeps, or routes to an
// unreachable region, stays local (ok false).  Otherwise it is marked
// forwarded to region index dest, with the overlay latency read through net
// (a view over regionNames) as its one-way trip and its ReturnLeg: the
// response travels back over the overlay as well.  The plan's rows are
// indexed like regionNames (installPlan checks).
func (m *Manager) forwardLeg(eng *simclock.Engine, req *cloudsim.Request, plan *core.ForwardPlan, net *overlay.LatencyView, from int, u float64) (dest int, ok bool) {
	dest = plan.DestinationIndex(from, u)
	if dest == from {
		return 0, false
	}
	latMs := net.Latency(from, dest)
	if latMs != latMs || latMs > 1e6 { // NaN or unreachable: process locally
		return 0, false
	}
	req.ReturnLeg = simclock.Duration(latMs / 1000)
	if req.Trace != nil {
		// Guarded so the detail string is only built for sampled requests.
		req.Trace.Span(tracing.SpanForward, eng.Now(), req.ReturnLeg,
			fmt.Sprintf("%s->%s", m.regionNames[from], m.regionNames[dest]))
	}
	return dest, true
}

// hashString is a small FNV-style hash used to derive per-region RNG streams.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// entrySharesFromClients returns the per-region share of connected clients
// (cohort-compressed ones included), the best estimate of the entry
// distribution before any traffic is observed.
func (m *Manager) entrySharesFromClients() []float64 {
	out := make([]float64, len(m.cfg.Regions))
	for i, rs := range m.cfg.Regions {
		out[i] = float64(rs.Clients + rs.CohortClients)
	}
	return core.Normalize(out)
}

// Engine exposes the control timeline (tests and examples schedule probes
// on it).
func (m *Manager) Engine() *simclock.Engine { return m.eng }

// Tracer returns the deployment's request-span tracer (nil unless
// TraceSampleFraction > 0).
func (m *Manager) Tracer() *tracing.Tracer { return m.tracer }

// FlightRecorder returns the engine flight recorder (nil unless
// Config.FlightRecorder is set).
func (m *Manager) FlightRecorder() *simclock.FlightRecorder { return m.flight }

// FanOut returns how the event loop ran its shard phases (inline or on the
// worker pool); the stats depend on the host, never on the simulation.
func (m *Manager) FanOut() simclock.FanOutStats { return m.el.se.FanOut() }

// Recorder returns the experiment time-series recorder.
func (m *Manager) Recorder() *trace.Recorder { return m.recorder }

// Metrics returns the client-side workload metrics: a fresh merge of the
// per-shard sinks in shard-index order (the fixed fold order of the
// determinism contract).
func (m *Manager) Metrics() *workload.Metrics {
	out := workload.NewMetrics()
	m.el.mergeMetrics(out)
	return out
}

// Overlay returns the controller overlay network.
func (m *Manager) Overlay() *overlay.Network { return m.net }

// Cluster returns the leader-election cluster.
func (m *Manager) Cluster() *election.Cluster { return m.cluster }

// Loop returns the leader-side control loop.
func (m *Manager) Loop() *core.Loop { return m.loop }

// VMC returns the controller of the named region (nil when unknown).
func (m *Manager) VMC(region string) *pcam.VMC {
	i, ok := m.regionIndex[region]
	if !ok {
		return nil
	}
	return m.vmcs[i]
}

// Regions returns the simulated regions.
func (m *Manager) Regions() []*cloudsim.Region { return m.regions }

// RegionNames returns the region names in configuration order.
func (m *Manager) RegionNames() []string { return append([]string(nil), m.regionNames...) }

// Eras returns the number of completed control eras.
func (m *Manager) Eras() uint64 { return m.eras }

// ForwardedRequests returns how many requests were forwarded to a region
// other than their entry region (the redirection overhead of Section VI-B).
func (m *Manager) ForwardedRequests() uint64 {
	_, forwarded := m.el.counters()
	return forwarded
}

// LocalRequests returns how many requests were processed in their entry
// region.
func (m *Manager) LocalRequests() uint64 {
	local, _ := m.el.counters()
	return local
}

// ControlMessages returns the number of controller-to-controller messages
// exchanged by the control loop (RMTTF reports and plan installations routed
// over the overlay).
func (m *Manager) ControlMessages() uint64 { return m.controlMessages }

// Start launches the client populations, the per-region controllers and the
// global control loop.
func (m *Manager) Start() {
	m.el.start()
	m.startDirector()
	m.scheduleFaults()
	m.stopLoop = m.eng.Ticker(m.cfg.ControlInterval, func(eng *simclock.Engine) { m.controlEra(eng) })
}

// Stop halts the client populations and the controllers (pending events keep
// draining until the engine finishes).
func (m *Manager) Stop() {
	m.el.stop()
	if m.stopProbe != nil {
		m.stopProbe()
		m.stopProbe = nil
	}
	if m.stopGossip != nil {
		m.stopGossip()
		m.stopGossip = nil
	}
	if m.stopLoop != nil {
		m.stopLoop()
		m.stopLoop = nil
	}
}

// Run starts the deployment, executes the simulation for the given horizon
// and stops it.  It can be called once per Manager.
func (m *Manager) Run(horizon simclock.Duration) error {
	m.Start()
	err := m.el.se.Run(horizon)
	m.Stop()
	if err != nil && err != simclock.ErrHorizonReached {
		return err
	}
	return nil
}

// controlEra executes one era of the global closed control loop: Monitor and
// Analyze happen inside the VMCs (they have already refreshed their RMTTF
// estimates on their own control ticks); here the leader collects the
// lastRMTTF of every reachable region, runs the policy, rebuilds the forward
// plan and installs it, and the era's values are published to the metrics
// registry, from which the series the figures plot are sampled.
func (m *Manager) controlEra(eng *simclock.Engine) {
	now := eng.Now().Seconds()
	leader, _ := m.cluster.GlobalLeader()
	if leader == "" {
		// No leader (fully partitioned): keep the previous plan.
		return
	}

	// Analyze: collect lastRMTTF_i from every VMC.  Unreachable regions keep
	// their previous smoothed value (the leader simply has no fresher data).
	last := make([]float64, len(m.regionNames))
	for i, name := range m.regionNames {
		vmc := m.vmcs[i]
		if name == leader || m.net.Reachable(name, leader) {
			last[i] = vmc.RMTTF()
			if name != leader {
				m.controlMessages++
			}
		} else {
			last[i] = m.loop.Aggregator().Current(name)
		}
		if last[i] <= 0 {
			// Before the first VMC tick: fall back to a capacity-based prior
			// so the very first plan is not degenerate.
			last[i] = m.regions[i].TrueRMTTF(1)
		}
	}

	// λ and entry shares measured over the last interval.
	met := m.el.eraMetrics()
	lambda, entry := m.intervalArrivals(met)

	res, err := m.loop.Step(last, lambda, entry)
	if err != nil {
		return
	}
	m.eras++

	// Execute: install the plan (one message per reachable slave).  Every
	// shard's dispatcher reads the plan installed here, at the barrier,
	// while the shard loops are idle.
	m.el.installPlan(res.Plan)
	for _, name := range m.regionNames {
		if name != leader && m.net.Reachable(leader, name) {
			m.controlMessages++
		}
	}

	// Publish the era into the instrument registry, then sample the series
	// of Figures 3 and 4 (and the GSLB/gossip series) from it — still at the
	// barrier, from the merged views of this era.
	m.publishMetrics(met, res.SmoothedRMTTF, res.Fractions, lambda, m.intervalResponseTime(met))
	m.sampleSeries(now)
}

// intervalArrivals returns the global request rate and per-region entry
// shares observed since the previous control era.  λ is measured from the
// all-clients issued counter, so globally attached populations and arrival
// streams count towards the rate the policies see.  The entry shares count
// exactly the traffic that rides the forward plan: each region's own
// browsers plus the arrival streams pinned to that region's entry load
// balancer (their metrics carry the stream's label, so their issued
// counters are folded into the pinned region here); director-routed
// traffic bypasses the plan and stays out of the shares.  For purely
// regional deployments every counter below is the same sum as before, so
// the accounting is byte-invisible there.
func (m *Manager) intervalArrivals(met *workload.Metrics) (lambda float64, entry []float64) {
	interval := m.cfg.ControlInterval.Seconds()
	regionNew := uint64(0)
	entry = make([]float64, len(m.regionNames))
	for i, name := range m.regionNames {
		iss := met.Issued(name)
		diff := iss - m.prevIssued[name]
		m.prevIssued[name] = iss
		entry[i] = float64(diff)
		regionNew += diff
	}
	for _, a := range m.cfg.Arrivals {
		if a.Region == "" {
			continue
		}
		iss := met.Issued(a.Name)
		diff := iss - m.prevIssued[a.Name]
		m.prevIssued[a.Name] = iss
		entry[m.regionIndex[a.Region]] += float64(diff)
		regionNew += diff
	}
	issuedAll := met.Issued("")
	totalNew := issuedAll - m.prevIssuedAll
	m.prevIssuedAll = issuedAll
	if regionNew == 0 {
		entry = m.entrySharesFromClients()
	} else {
		entry = core.Normalize(entry)
	}
	if totalNew == 0 {
		return 0, entry
	}
	return float64(totalNew) / interval, entry
}

// intervalResponseTime returns the mean client response time over the last
// control interval (falling back to the lifetime mean when no sample landed
// in the interval).  The interval mean is reconstructed from the latency
// sample count, not the completion counter: with cohort-compressed
// populations completions are batch-weighted while the latency series is fed
// only by individually simulated clients, and dividing one by the other
// would collapse the series.  Without cohorts the two counters are equal, so
// the arithmetic is unchanged.
func (m *Manager) intervalResponseTime(met *workload.Metrics) float64 {
	count := met.ResponseSamples("")
	mean := met.MeanResponseTime("")
	total := mean * float64(count)
	dCount := count - m.prevRespCount
	dTotal := total - m.prevRespTotal
	m.prevRespCount = count
	m.prevRespTotal = total
	if dCount == 0 {
		return mean
	}
	return dTotal / float64(dCount)
}

// RegionStats returns the per-region simulator statistics.
func (m *Manager) RegionStats() []cloudsim.Stats {
	out := make([]cloudsim.Stats, len(m.regions))
	for i, r := range m.regions {
		out[i] = r.Stats()
	}
	return out
}

// ShardStats returns the per-shard statistics of every sharded region
// (regions running a single shard are omitted), keyed by region name and
// ordered by shard index.  The entries carry "<region>/shard<i>" labels, so
// reports can show how evenly the engine shards share the pool.
func (m *Manager) ShardStats() map[string][]cloudsim.Stats {
	out := map[string][]cloudsim.Stats{}
	for _, r := range m.regions {
		if r.NumShards() > 1 {
			out[r.Name()] = r.ShardStats()
		}
	}
	return out
}

// VMCStats returns the per-region controller statistics keyed by region name.
func (m *Manager) VMCStats() map[string]pcam.Stats {
	out := map[string]pcam.Stats{}
	for i, vmc := range m.vmcs {
		out[m.regionNames[i]] = vmc.Stats()
	}
	return out
}
