package cloudsim

import (
	"fmt"
	"sort"

	"repro/internal/simclock"
)

// RegionConfig describes one cloud region of the deployment: a set of VMs of
// a single instance type hosted by one provider in one geographic location.
// The paper's testbed (Section VI-A) uses three such regions with markedly
// different amounts of resources, which is exactly the heterogeneity the
// load-balancing policies must cope with.
type RegionConfig struct {
	// Name identifies the region (e.g. "region1").
	Name string
	// Provider is the hosting provider ("aws", "private", ...).
	Provider string
	// Location is the geographic location, used by the overlay latency model.
	Location string
	// Type is the instance type of every VM in the region.
	Type InstanceType
	// InitialActive is the number of VMs started in the ACTIVE state.
	InitialActive int
	// InitialStandby is the number of VMs started in the STANDBY state,
	// available for proactive takeover.
	InitialStandby int
	// MaxVMs caps how many VMs the hypervisor / provider account can host in
	// this region; ADDVMS requests beyond the cap are rejected.  Zero means
	// "twice the initial pool".
	MaxVMs int
	// Shards splits the region's VM pool across this many engine shards, each
	// owning a disjoint VM subset with its own derived RNG stream.  Sharding
	// keeps the per-request and per-scan cost at O(pool/Shards) so a single
	// region can grow past ~10^3 VMs.  Zero or one keeps today's single-pool
	// behaviour (byte-identical event streams).
	Shards int
	// Anomalies, Failure and Rejuvenation apply to every VM in the region.
	Anomalies    AnomalyProfile
	Failure      FailurePoint
	Rejuvenation RejuvenationModel
}

// withDefaults fills zero-valued fields with the paper's defaults.
func (c RegionConfig) withDefaults() RegionConfig {
	if c.Anomalies.IsZero() {
		c.Anomalies = DefaultAnomalyProfile()
	}
	if c.Failure.IsZero() {
		c.Failure = DefaultFailurePoint()
	}
	if c.Rejuvenation.IsZero() {
		c.Rejuvenation = DefaultRejuvenationModel()
	}
	if c.MaxVMs <= 0 {
		c.MaxVMs = 2 * (c.InitialActive + c.InitialStandby)
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Region is a pool of VMs managed as a unit by one Virtual Machine
// Controller.  Internally the pool is split across one or more shards (see
// shard.go); the facade presented here merges the per-shard views so callers
// keep seeing a single logical region.
type Region struct {
	cfg    RegionConfig
	shards []*shard
	vms    []*VM          // every VM, in provisioning order (facade views)
	byID   map[string]*VM // O(1) lookup, required at 10^3+ VM pools
	next   int            // counter for provisioned VM IDs
}

// MaxShards is the most shards a region may have: a request hopping off
// empty shards counts its hops in 16 bits (Request.hops).
const MaxShards = 1 << 16

// NewRegion builds the region's initial VM pool.  Active VMs are activated
// immediately (activation latency is irrelevant before the simulation
// starts).  More than MaxShards shards panics.
//
// With Shards <= 1 the provided rng drives every VM fork directly, exactly as
// the unsharded engine did.  With Shards > 1 a base seed is drawn from rng
// once and each shard receives an independent stream derived via
// simclock.DeriveSeed(base, shardIndex), so shard streams do not depend on
// each other's consumption.
func NewRegion(cfg RegionConfig, rng *simclock.RNG) *Region {
	cfg = cfg.withDefaults()
	if cfg.Shards > MaxShards {
		panic(fmt.Sprintf("cloudsim: region %s: %d shards, more than MaxShards (%d)", cfg.Name, cfg.Shards, MaxShards))
	}
	if rng == nil {
		rng = simclock.NewRNG(7)
	}
	r := &Region{cfg: cfg, byID: map[string]*VM{}}
	r.shards = make([]*shard, cfg.Shards)
	if cfg.Shards == 1 {
		r.shards[0] = &shard{region: r, index: 0, rng: rng}
	} else {
		base := rng.Uint64()
		for i := range r.shards {
			r.shards[i] = &shard{region: r, index: i, rng: simclock.NewRNG(simclock.DeriveSeed(base, uint64(i)))}
		}
	}
	for i := 0; i < cfg.InitialActive+cfg.InitialStandby; i++ {
		vm := r.newVM()
		if i < cfg.InitialActive {
			vm.setState(StateActive)
		}
	}
	return r
}

// newVM provisions a VM object, assigns it round-robin to a shard and appends
// it to the pool.
func (r *Region) newVM() *VM {
	sh := r.shards[r.next%len(r.shards)]
	r.next++
	id := fmt.Sprintf("%s-vm%02d", r.cfg.Name, r.next)
	vm := NewVM(VMConfig{
		ID:           id,
		Type:         r.cfg.Type,
		Anomalies:    r.cfg.Anomalies,
		Failure:      r.cfg.Failure,
		Rejuvenation: r.cfg.Rejuvenation,
	}, sh.rng.Fork())
	vm.shardIndex, vm.index = sh.index, int32(len(r.vms))
	vm.ix, vm.slot = &sh.ix, sh.ix.add()
	sh.vms = append(sh.vms, vm)
	r.vms = append(r.vms, vm)
	r.byID[id] = vm
	return vm
}

// Name returns the region name.
func (r *Region) Name() string { return r.cfg.Name }

// Config returns the region configuration (with defaults applied).
func (r *Region) Config() RegionConfig { return r.cfg }

// VMs returns all VMs in the pool, in provisioning order.
func (r *Region) VMs() []*VM { return r.vms }

// VM returns the VM with the given ID, or nil.
func (r *Region) VM(id string) *VM { return r.byID[id] }

// byState returns the VMs currently in the given state.
func (r *Region) byState(s VMState) []*VM {
	return r.AppendByState(nil, s)
}

// AppendByState appends the region's VMs currently in the given state to dst,
// in provisioning order, and returns the extended slice.  It is the
// allocation-free variant of ActiveVMs / StandbyVMs for callers that scan on
// every control tick and want to reuse one buffer via dst[:0].
func (r *Region) AppendByState(dst []*VM, s VMState) []*VM {
	for _, vm := range r.vms {
		if vm.State() == s {
			dst = append(dst, vm)
		}
	}
	return dst
}

// ActiveVMs returns the VMs currently serving requests.
func (r *Region) ActiveVMs() []*VM { return r.byState(StateActive) }

// StandbyVMs returns the healthy spare VMs.
func (r *Region) StandbyVMs() []*VM { return r.byState(StateStandby) }

// Provision adds n new STANDBY VMs, respecting the MaxVMs cap, and returns
// the VMs actually created.  This is the hypervisor-side half of the ADDVMS
// elasticity action.
func (r *Region) Provision(n int) []*VM {
	var out []*VM
	for i := 0; i < n; i++ {
		if len(r.vms) >= r.cfg.MaxVMs {
			break
		}
		out = append(out, r.newVM())
	}
	return out
}

// CanProvision reports whether at least one more VM fits under the cap.
func (r *Region) CanProvision() bool { return len(r.vms) < r.cfg.MaxVMs }

// ComputeCapacity returns the aggregate healthy-state service capacity of the
// ACTIVE VMs, expressed in requests per second: for each active VM,
// vCPUs / base service time, discounted by its current degradation.  It is
// the quantity Policy 2 implicitly estimates through Q_i = RMTTF_i * f_i * λ.
func (r *Region) ComputeCapacity() float64 {
	total := 0.0
	for _, sh := range r.shards {
		total += sh.computeCapacity()
	}
	return total
}

// TrueRMTTF returns the ground-truth Region Mean Time To Failure: the average
// of the per-VM true RTTFs assuming the region's current request rate is
// spread evenly across its active VMs.  The ML-driven system estimates this
// quantity from features; tests use the ground truth to validate those
// estimates.
func (r *Region) TrueRMTTF(regionRatePerSec float64) float64 {
	activeTotal := 0
	for _, sh := range r.shards {
		activeTotal += sh.countState(StateActive)
	}
	if activeTotal == 0 {
		return 0
	}
	perVM := regionRatePerSec / float64(activeTotal)
	sum := 0.0
	for _, sh := range r.shards {
		s, _ := sh.trueRTTFSum(perVM)
		sum += s
	}
	return sum / float64(activeTotal)
}

// HourlyCost returns the total on-demand cost per hour of every provisioned
// VM in the region.
func (r *Region) HourlyCost() float64 {
	total := 0.0
	for _, vm := range r.vms {
		total += vm.Type().CostPerHour
	}
	return total
}

// Stats aggregates lifetime counters across the region's VMs.
type Stats struct {
	Region        string
	VMs           int
	Active        int
	Standby       int
	Failed        int
	Rejuvenating  int
	Served        uint64
	Dropped       uint64
	Crashes       uint64
	Rejuvenations uint64
	LeakedMB      float64
}

// Stats returns a snapshot of the region's aggregate counters, merged from
// the per-shard aggregates.
func (r *Region) Stats() Stats {
	s := Stats{Region: r.cfg.Name, VMs: len(r.vms)}
	for _, sh := range r.shards {
		ss := sh.stats(r.cfg.Name)
		s.Active += ss.Active
		s.Standby += ss.Standby
		s.Failed += ss.Failed
		s.Rejuvenating += ss.Rejuvenating
		s.Served += ss.Served
		s.Dropped += ss.Dropped
		s.Crashes += ss.Crashes
		s.Rejuvenations += ss.Rejuvenations
		s.LeakedMB += ss.LeakedMB
	}
	return s
}

// Telemetry is the health-probe view of a region: the signals a global
// traffic director samples when deciding whether the region should keep
// receiving traffic.  Served/Dropped are lifetime counters; probes diff them
// across samples to obtain interval error rates.
type Telemetry struct {
	// Region names the region.
	Region string
	// ActiveVMs is the number of VMs currently serving requests.
	ActiveVMs int
	// BaselineActive is the configured initial ACTIVE pool — the denominator
	// of the active-capacity fraction a probe thresholds on.
	BaselineActive int
	// Capacity is the aggregate healthy-state service capacity of the ACTIVE
	// VMs in requests per second (see ComputeCapacity).
	Capacity float64
	// Served and Dropped are the lifetime request counters of the region's
	// VMs.
	Served  uint64
	Dropped uint64
}

// Telemetry returns the probe snapshot of the region's current state.
func (r *Region) Telemetry() Telemetry {
	st := r.Stats()
	return Telemetry{
		Region:         r.cfg.Name,
		ActiveVMs:      st.Active,
		BaselineActive: r.cfg.InitialActive,
		Capacity:       r.ComputeCapacity(),
		Served:         st.Served,
		Dropped:        st.Dropped,
	}
}

// String renders the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("%s: vms=%d active=%d standby=%d failed=%d rejuv=%d served=%d dropped=%d crashes=%d",
		s.Region, s.VMs, s.Active, s.Standby, s.Failed, s.Rejuvenating, s.Served, s.Dropped, s.Crashes)
}

// PaperRegion identifies one of the three regions of the paper's testbed.
type PaperRegion int

const (
	// PaperRegion1 is Region 1: 6 m3.medium instances in the Ireland region
	// of Amazon EC2.
	PaperRegion1 PaperRegion = iota + 1
	// PaperRegion2 is Region 2: 12 m3.small instances in the Frankfurt region
	// of Amazon EC2.
	PaperRegion2
	// PaperRegion3 is Region 3: 4 private VMs (2 vCPU, 1 GB RAM) on an HP
	// ProLiant server in Munich.
	PaperRegion3
)

// PaperRegionConfig returns the RegionConfig matching the paper's testbed for
// the given region.  Each region keeps a small standby pool so PCAM has spare
// VMs to activate, as required by the proactive-takeover mechanism.
func PaperRegionConfig(which PaperRegion) RegionConfig {
	switch which {
	case PaperRegion1:
		return RegionConfig{
			Name:           "region1",
			Provider:       "aws",
			Location:       "eu-west-1 (Ireland)",
			Type:           M3Medium,
			InitialActive:  6,
			InitialStandby: 3,
		}
	case PaperRegion2:
		return RegionConfig{
			Name:           "region2",
			Provider:       "aws",
			Location:       "eu-central-1 (Frankfurt)",
			Type:           M3Small,
			InitialActive:  12,
			InitialStandby: 6,
		}
	case PaperRegion3:
		return RegionConfig{
			Name:           "region3",
			Provider:       "private",
			Location:       "Munich",
			Type:           PrivateVM,
			InitialActive:  4,
			InitialStandby: 2,
		}
	default:
		panic(fmt.Sprintf("cloudsim: unknown paper region %d", which))
	}
}

// PaperTestbed builds the requested paper regions, seeding each region's RNG
// deterministically from the base seed.
func PaperTestbed(seed uint64, which ...PaperRegion) []*Region {
	sort.Slice(which, func(i, j int) bool { return which[i] < which[j] })
	out := make([]*Region, 0, len(which))
	for i, w := range which {
		rng := simclock.NewRNG(seed + uint64(i)*1000003 + uint64(w))
		out = append(out, NewRegion(PaperRegionConfig(w), rng))
	}
	return out
}
