package cloudsim

import (
	"fmt"

	"repro/internal/simclock"
)

// A shard owns a disjoint subset of a region's VM pool together with its own
// derived RNG stream and dispatch index (dispatch.go).  Sharding is what lets
// one region scale past ~10^3 VMs: the region's load balancer reads one
// shard's index and the periodic controller scans operate on one shard
// (O(pool/N)) instead of the whole pool (O(pool)), and the region facade
// merges the per-shard aggregates so the layers above (pcam, acm, core) keep
// seeing a single logical region.
//
// VMs are assigned to shards round-robin at provisioning time, so shard
// populations stay balanced as the region grows through ADDVMS.  Each shard's
// RNG stream is derived via simclock.DeriveSeed(regionBase, shardIndex): the
// streams are independent of each other and of the provisioning order of the
// other shards, which keeps multi-shard runs deterministic.
type shard struct {
	region *Region
	index  int
	rng    *simclock.RNG
	vms    []*VM            // this shard's VMs, in provisioning order
	engine *simclock.Engine // sub-engine owning this shard's events (nil = standalone engine)
	ix     dispatchIndex    // queue lengths and ACTIVE slots, kept current by the VMs
	rr     int              // SubmitShard's round-robin cursor, touched only on the shard's lane
}

// Concurrency: a shard's accessors (byState, appendByState, countState,
// stats, computeCapacity, trueRTTFSum) only read the states and counters of
// the shard's own VMs.  During a control-tick parallel phase
// (simclock.ShardedEngine.ParallelPhase) each shard is visited by exactly one
// goroutine, no VM changes state (state transitions schedule events, which
// the engine rejects during the phase), and VMs never migrate between
// shards — so these accessors are safe to run concurrently as long as each
// goroutine touches only its own shard.

// appendByState appends the shard's VMs currently in the given state to dst,
// in provisioning order, and returns the extended slice.  Passing a reused
// dst[:0] keeps repeated scans allocation-free, which is what the
// controller's per-tick hot path relies on.
func (sh *shard) appendByState(dst []*VM, s VMState) []*VM {
	if s == StateActive {
		for _, slot := range sh.ix.active {
			dst = append(dst, sh.vms[slot])
		}
		return dst
	}
	for _, vm := range sh.vms {
		if vm.State() == s {
			dst = append(dst, vm)
		}
	}
	return dst
}

// countState returns how many of the shard's VMs are in the given state.
func (sh *shard) countState(s VMState) int {
	if s == StateActive {
		return len(sh.ix.active)
	}
	n := 0
	for _, vm := range sh.vms {
		if vm.State() == s {
			n++
		}
	}
	return n
}

// stats aggregates the shard's lifetime counters.
func (sh *shard) stats(region string) Stats {
	s := Stats{Region: fmt.Sprintf("%s/shard%d", region, sh.index), VMs: len(sh.vms)}
	for _, vm := range sh.vms {
		switch vm.State() {
		case StateActive:
			s.Active++
		case StateStandby:
			s.Standby++
		case StateFailed:
			s.Failed++
		case StateRejuvenating:
			s.Rejuvenating++
		}
		s.Served += vm.Served()
		s.Dropped += vm.DroppedRequests()
		s.Crashes += vm.Crashes()
		s.Rejuvenations += vm.Rejuvenations()
		s.LeakedMB += vm.LeakedMB()
	}
	return s
}

// computeCapacity returns the shard's share of the region's healthy-state
// service capacity (requests per second over its ACTIVE VMs).
func (sh *shard) computeCapacity() float64 {
	total := 0.0
	for _, vm := range sh.vms {
		if vm.State() != StateActive {
			continue
		}
		base := vm.Type().BaseServiceMs / 1000
		if base <= 0 {
			continue
		}
		total += float64(vm.Type().VCPUs) / (base * vm.DegradationFactor())
	}
	return total
}

// trueRTTFSum returns the sum of the ground-truth RTTFs of the shard's ACTIVE
// VMs at the given per-VM request rate, plus the number of ACTIVE VMs.  The
// facade divides the merged sum by the merged count to obtain the region
// RMTTF.
func (sh *shard) trueRTTFSum(perVMRate float64) (sum float64, active int) {
	for _, vm := range sh.vms {
		if vm.State() != StateActive {
			continue
		}
		sum += vm.TrueRTTF(perVMRate)
		active++
	}
	return sum, active
}

// NumShards returns the number of engine shards the region's VM pool is split
// across (1 unless RegionConfig.Shards was set higher).
func (r *Region) NumShards() int { return len(r.shards) }

// BindShardEngines attaches one sub-engine per shard, enabling the parallel
// event loop: controllers use the binding to route a VM's timed transitions
// (rejuvenation completion, activation) to the engine that owns the VM's
// shard, and Send and SubmitShard reach a shard on its own lane.  Each
// engine becomes its shard's (simclock.Engine.SetOwner), which is how a
// request arriving on the lane finds the shard; an engine owned by another
// shard panics.  The slice length must match NumShards.  Unbound regions
// (one standalone engine) report nil from ShardEngine and callers fall back
// to the engine in hand.
func (r *Region) BindShardEngines(engs []*simclock.Engine) {
	if len(engs) != len(r.shards) {
		panic(fmt.Sprintf("cloudsim: BindShardEngines got %d engines for %d shards", len(engs), len(r.shards)))
	}
	for i, sh := range r.shards {
		if o := engs[i].Owner(); o != nil && o != sh {
			panic(fmt.Sprintf("cloudsim: BindShardEngines: engine of shard %d of region %s already runs another shard", i, r.cfg.Name))
		}
		sh.engine = engs[i]
		engs[i].SetOwner(sh)
	}
}

// ShardEngine returns the sub-engine bound to shard i, or nil when the
// region runs on one standalone engine.
func (r *Region) ShardEngine(i int) *simclock.Engine { return r.shards[i].engine }

// AppendByStateInShard appends one shard's VMs currently in the given state
// to dst, in provisioning order, and returns the extended slice.  Callers on
// per-tick hot paths pass a reused buffer's dst[:0].  ACTIVE VMs come from the
// shard's dispatch index rather than a state scan.  Safe to call concurrently
// for distinct shard indices (see the shard concurrency note above).
func (r *Region) AppendByStateInShard(dst []*VM, i int, s VMState) []*VM {
	return r.shards[i].appendByState(dst, s)
}

// ActiveCount returns the number of ACTIVE VMs region-wide, summed from the
// shards' dispatch indexes: the O(shards) equivalent of len(ActiveVMs()).
func (r *Region) ActiveCount() int {
	n := 0
	for _, sh := range r.shards {
		n += sh.countState(StateActive)
	}
	return n
}

// ActiveCountInShard returns the number of ACTIVE VMs in one shard, read
// from its dispatch index.
func (r *Region) ActiveCountInShard(i int) int { return r.shards[i].countState(StateActive) }

// StandbyPromotionCandidate returns one shard's first STANDBY VM in
// provisioning order (nil if it has none) together with the shard's ACTIVE
// count — the two facts standby promotion needs per shard, both read from
// the shard's dispatch index.
func (r *Region) StandbyPromotionCandidate(i int) (*VM, int) {
	sh := r.shards[i]
	var first *VM
	if slot := sh.ix.firstStandby(); slot >= 0 {
		first = sh.vms[slot]
	}
	return first, len(sh.ix.active)
}

// ShardStats returns one aggregate snapshot per shard, labelled
// "<region>/shard<i>".  Region.Stats merges these into the region aggregate.
func (r *Region) ShardStats() []Stats {
	out := make([]Stats, len(r.shards))
	for i, sh := range r.shards {
		out[i] = sh.stats(r.cfg.Name)
	}
	return out
}
