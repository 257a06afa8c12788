package cloudsim

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/simclock"
)

func shardedConfig(shards int) RegionConfig {
	return RegionConfig{
		Name:           "shardy",
		Provider:       "aws",
		Location:       "test",
		Type:           M3Medium,
		InitialActive:  10,
		InitialStandby: 6,
		MaxVMs:         24,
		Shards:         shards,
	}.WithDefaults()
}

func TestRegionShardsDefaultToOne(t *testing.T) {
	r := NewRegion(PaperRegionConfig(PaperRegion1), simclock.NewRNG(1))
	if r.NumShards() != 1 {
		t.Fatalf("NumShards = %d, want 1 by default", r.NumShards())
	}
	if r.Config().Shards != 1 {
		t.Fatalf("withDefaults should normalise Shards to 1, got %d", r.Config().Shards)
	}
	for _, vm := range r.VMs() {
		if vm.ShardIndex() != 0 {
			t.Fatalf("VM %s in shard %d, want 0", vm.ID(), vm.ShardIndex())
		}
	}
	if got := len(r.shards[0].vms); got != len(r.VMs()) {
		t.Fatalf("shard 0 owns %d VMs, want the whole pool (%d)", got, len(r.VMs()))
	}
}

// TestShardedRegionPartition checks the core ownership invariant: every VM
// belongs to exactly one shard, assignment is round-robin by provisioning
// index, and the facade's provisioning-order view is unchanged by sharding.
func TestShardedRegionPartition(t *testing.T) {
	const shards = 4
	r := NewRegion(shardedConfig(shards), simclock.NewRNG(7))
	if r.NumShards() != shards {
		t.Fatalf("NumShards = %d, want %d", r.NumShards(), shards)
	}

	// VM IDs do not depend on the shard count.
	flat := NewRegion(shardedConfig(1), simclock.NewRNG(7))
	for i, vm := range r.VMs() {
		if vm.ID() != flat.VMs()[i].ID() {
			t.Fatalf("sharding changed VM naming: %s vs %s", vm.ID(), flat.VMs()[i].ID())
		}
	}

	seen := map[string]int{}
	total := 0
	for s := 0; s < shards; s++ {
		for _, vm := range r.shards[s].vms {
			if vm.ShardIndex() != s || vm.shardIndex != s {
				t.Fatalf("VM %s owned by shard %d but reports shard %d", vm.ID(), s, vm.ShardIndex())
			}
			if prev, dup := seen[vm.ID()]; dup {
				t.Fatalf("VM %s owned by shards %d and %d", vm.ID(), prev, s)
			}
			seen[vm.ID()] = s
			total++
		}
	}
	if total != len(r.VMs()) {
		t.Fatalf("shards own %d VMs, pool has %d", total, len(r.VMs()))
	}
	for i, vm := range r.VMs() {
		if want := i % shards; seen[vm.ID()] != want {
			t.Fatalf("VM %d (%s) in shard %d, want round-robin shard %d", i, vm.ID(), seen[vm.ID()], want)
		}
	}
}

// TestShardedRegionDerivedStreams pins the per-shard RNG derivation: the same
// seed always yields the same shard streams, VM service behaviour included.
// (Disjointness of sibling streams is covered by the DeriveSeed property
// tests in simclock.)
func TestShardedRegionDerivedStreams(t *testing.T) {
	eng := simclock.NewEngine(3)
	a := NewRegion(shardedConfig(4), simclock.NewRNG(99))
	b := NewRegion(shardedConfig(4), simclock.NewRNG(99))
	// Drive the same request sequence through both regions' corresponding VMs
	// and require identical outcomes, which pins the whole derivation chain.
	for i, vm := range a.ActiveVMs() {
		vm.Dispatch(eng, &Request{ID: uint64(i), ServiceFactor: 1, Arrival: eng.Now()})
	}
	for i, vm := range b.ActiveVMs() {
		vm.Dispatch(eng, &Request{ID: uint64(i), ServiceFactor: 1, Arrival: eng.Now()})
	}
	eng.RunUntilEmpty()
	for i, vm := range a.VMs() {
		other := b.VMs()[i]
		if vm.Served() != other.Served() || vm.LeakedMB() != other.LeakedMB() || vm.zombieThreads != other.zombieThreads {
			t.Fatalf("same seed diverged on VM %s: served=%d/%d leaked=%v/%v",
				vm.ID(), vm.Served(), other.Served(), vm.LeakedMB(), other.LeakedMB())
		}
	}
}

// TestShardedRegionFacadeAggregates checks that the facade's merged views
// equal the whole-pool quantities.
func TestShardedRegionFacadeAggregates(t *testing.T) {
	const shards = 4
	r := NewRegion(shardedConfig(shards), simclock.NewRNG(11))

	// State views: the union of the per-shard views must equal the facade
	// view (same VMs, facade in provisioning order).
	fromShards := map[string]bool{}
	active := 0
	for s := 0; s < shards; s++ {
		for _, vm := range r.shards[s].appendByState(nil, StateActive) {
			fromShards[vm.ID()] = true
			active++
		}
	}
	if active != len(r.ActiveVMs()) {
		t.Fatalf("per-shard actives = %d, facade actives = %d", active, len(r.ActiveVMs()))
	}
	for _, vm := range r.ActiveVMs() {
		if !fromShards[vm.ID()] {
			t.Fatalf("facade-active VM %s missing from every shard view", vm.ID())
		}
	}
	standby := 0
	for s := 0; s < shards; s++ {
		standby += len(r.shards[s].appendByState(nil, StateStandby))
	}
	if standby != len(r.byState(StateStandby)) {
		t.Fatalf("per-shard standbys = %d, facade standbys = %d", standby, len(r.byState(StateStandby)))
	}

	// Capacity: the merged per-shard sums must equal the flat whole-pool sum.
	flat := 0.0
	for _, vm := range r.ActiveVMs() {
		flat += float64(vm.Type().VCPUs) / (vm.Type().BaseServiceMs / 1000 * vm.DegradationFactor())
	}
	if got := r.ComputeCapacity(); math.Abs(got-flat) > 1e-9*flat {
		t.Fatalf("ComputeCapacity = %v, flat sum = %v", got, flat)
	}

	// RMTTF: fresh identical VMs have identical TrueRTTF, so the merged mean
	// must equal any single VM's value (up to the floating-point association
	// of the per-shard partial sums).
	rate := 20.0
	want := r.ActiveVMs()[0].TrueRTTF(rate / float64(len(r.ActiveVMs())))
	if got := r.TrueRMTTF(rate); math.Abs(got-want) > 1e-12*want {
		t.Fatalf("TrueRMTTF = %v, want %v", got, want)
	}

	// Stats: merged region aggregate vs per-shard snapshots.
	merged := r.Stats()
	perShard := r.ShardStats()
	if len(perShard) != shards {
		t.Fatalf("ShardStats returned %d entries, want %d", len(perShard), shards)
	}
	vms, act, stb := 0, 0, 0
	for s, ss := range perShard {
		if want := fmt.Sprintf("shardy/shard%d", s); ss.Region != want {
			t.Fatalf("shard stats label = %q, want %q", ss.Region, want)
		}
		vms += ss.VMs
		act += ss.Active
		stb += ss.Standby
	}
	if vms != merged.VMs || act != merged.Active || stb != merged.Standby {
		t.Fatalf("shard stats do not merge to the region aggregate: %+v vs %d/%d/%d", merged, vms, act, stb)
	}
}

// TestShardedProvisionRoundRobin checks that ADDVMS-provisioned VMs keep
// filling the shards evenly and respect the region cap.
func TestShardedProvisionRoundRobin(t *testing.T) {
	const shards = 4
	r := NewRegion(shardedConfig(shards), simclock.NewRNG(5))
	added := r.Provision(100)
	if len(r.VMs()) != 24 {
		t.Fatalf("pool after provisioning = %d, want the cap 24", len(r.VMs()))
	}
	if len(added) != 8 {
		t.Fatalf("provisioned %d VMs, want 8", len(added))
	}
	for s := 0; s < shards; s++ {
		if got := len(r.shards[s].vms); got != 24/shards {
			t.Fatalf("shard %d owns %d VMs after provisioning, want %d", s, got, 24/shards)
		}
	}
	// O(1) lookup still covers the new VMs.
	for _, vm := range added {
		if r.VM(vm.ID()) != vm {
			t.Fatalf("lookup of provisioned VM %s failed", vm.ID())
		}
	}
}

func TestConfigIsZeroMethods(t *testing.T) {
	if !(AnomalyProfile{}).IsZero() || !(FailurePoint{}).IsZero() || !(RejuvenationModel{}).IsZero() {
		t.Fatalf("zero values should report IsZero")
	}
	if DefaultAnomalyProfile().IsZero() || DefaultFailurePoint().IsZero() || DefaultRejuvenationModel().IsZero() {
		t.Fatalf("defaults should not report IsZero")
	}
	// A single set field is enough to count as configured: withDefaults must
	// not clobber a deliberately sparse profile.
	partial := AnomalyProfile{LeakProbability: 0.2}
	if partial.IsZero() {
		t.Fatalf("partially set profile should not report IsZero")
	}
	cfg := RegionConfig{Name: "x", Type: M3Medium, InitialActive: 1, Anomalies: partial}.WithDefaults()
	if cfg.Anomalies != partial {
		t.Fatalf("WithDefaults clobbered an explicit anomaly profile: %+v", cfg.Anomalies)
	}
	if cfg.Failure.IsZero() || cfg.Rejuvenation.IsZero() {
		t.Fatalf("unset failure point / rejuvenation model should gain defaults")
	}
}
