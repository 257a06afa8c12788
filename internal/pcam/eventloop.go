// Event-loop-per-shard support for the VMC: when the deployment runs on a
// simclock.ShardedEngine, every region shard owns a private sub-engine and
// services its arrivals, completions and rejuvenation timers in parallel with
// the other shards.  The VMC's job splits accordingly:
//
//   - Request dispatch becomes shard-local (SubmitShard): the client
//     population attached to a shard submits to that shard's ACTIVE VMs,
//     picked from the shard's dispatch index by a per-shard shortest-queue
//     balancer.  A shard that is momentarily empty (e.g. mid-rejuvenation)
//     forwards the request to the next shard through its mailbox instead of
//     touching it directly.
//   - Cross-shard reactions move to the epoch barrier: a VM failure posts
//     its reactive recovery to the control timeline, where the controller
//     promotes a standby (possibly on another shard) and restarts the failed
//     VM on its own sub-engine — the direct cross-shard mutation the serial
//     hook performed becomes a mailbox post.
//   - The periodic control tick runs on the control timeline at its exact
//     interval, with exclusive access to all shards, exactly as before; its
//     per-shard monitor/analyze phase still fans out via ParallelPhase.
package pcam

import (
	"fmt"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
	"repro/internal/tracing"
)

// StartSharded installs the controller on a sharded event loop: engines[i]
// is the sub-engine owning region shard i, and the control tick is scheduled
// on the ShardedEngine's control timeline so it fires at its exact interval
// with exclusive access to every shard.  It replaces Start for deployments
// running the parallel event loop.
func (v *VMC) StartSharded(se *simclock.ShardedEngine, engines []*simclock.Engine) {
	if v.started {
		return
	}
	if len(engines) != v.region.NumShards() {
		panic(fmt.Sprintf("pcam: StartSharded got %d engines for %d shards", len(engines), v.region.NumShards()))
	}
	v.started = true
	v.se = se
	v.shardEngines = engines
	v.shardRRs = make([]int, len(engines))
	v.region.BindShardEngines(engines)
	for _, vm := range v.region.VMs() {
		v.hookVMSharded(vm)
	}
	v.stop = se.Control().Ticker(v.cfg.ControlInterval, func(e *simclock.Engine) { v.ControlTick(e) })
}

// Sharded reports whether the controller runs on a sharded event loop.
func (v *VMC) Sharded() bool { return v.se != nil }

// engineForVM returns the engine a timed transition of vm must be scheduled
// on: the VM's shard sub-engine when the controller runs sharded, otherwise
// the engine in hand (the serial engine).
func (v *VMC) engineForVM(eng *simclock.Engine, vm *cloudsim.VM) *simclock.Engine {
	if v.shardEngines != nil {
		return v.shardEngines[vm.ShardIndex()]
	}
	return eng
}

// hookVMSharded chains the reactive-recovery handler onto the VM's failure
// hook, sharded-event-loop flavour: the failure fires on the VM's shard
// goroutine, so the reaction — a stats increment, a standby promotion that
// may touch another shard, and the restart of the failed VM — is posted to
// the control timeline and executes at the next epoch barrier.
func (v *VMC) hookVMSharded(vm *cloudsim.VM) {
	prev := vm.OnFailure
	vm.OnFailure = func(failed *cloudsim.VM, at simclock.Time) {
		if prev != nil {
			prev(failed, at)
		}
		src := v.shardEngines[failed.ShardIndex()]
		v.se.PostControl(src, func(ctrl *simclock.Engine) {
			v.stats.ReactiveRecoveries++
			v.activateStandby(ctrl)
			failed.RecoverFromFailure(v.shardEngines[failed.ShardIndex()])
		})
	}
}

// SubmitShard is the shard-local half of the load balancer: the request is
// dispatched to the ACTIVE VM with the shortest queue within the given shard
// (ties broken by a per-shard round-robin cursor, touched only by the shard's
// goroutine and by the exclusive barrier).  When the shard has no
// ACTIVE VM the request hops to the next shard through its mailbox — never
// by touching the foreign shard directly — and is dropped once every shard
// has been tried.  With one shard this is exactly the serial Submit's
// whole-pool shortest-queue balancer.
func (v *VMC) SubmitShard(eng *simclock.Engine, shard int, req *cloudsim.Request) {
	v.submitShard(eng, shard, req, 0)
}

func (v *VMC) submitShard(eng *simclock.Engine, shard int, req *cloudsim.Request, hops int) {
	if v.region.ActiveCountInShard(shard) == 0 {
		if hops+1 >= v.region.NumShards() {
			req.Finish(eng, cloudsim.Outcome{Request: req, Region: v.region.Name(), Start: eng.Now(), End: eng.Now(), Dropped: true})
			return
		}
		v.hopToShard(eng, (shard+1)%v.region.NumShards(), req, hops+1)
		return
	}
	v.shardRRs[shard]++
	v.region.PickShortestInShard(shard, v.shardRRs[shard]).Dispatch(eng, req)
}

// hopToShard forwards a request to another shard's mailbox.  Before the
// first hop the completion callback is re-homed: the request will now finish
// on a foreign sub-engine, so the original OnDone must travel back to the
// submitting shard as a mailbox post instead of running on the serving
// shard's goroutine.  A request that already carries a posting OnDoneCtx
// (one forwarded across regions by the deployment's dispatcher) keeps it —
// that wrapper already posts to the true home shard.
func (v *VMC) hopToShard(eng *simclock.Engine, next int, req *cloudsim.Request, hops int) {
	if req.OnDoneCtx == nil {
		req.RehomeOnDone(v.se, v.se.LaneOf(eng), nil)
	}
	if req.Trace != nil {
		// Guarded so the detail string is only built for sampled requests.
		req.Trace.Event(tracing.EventShardHop, eng.Now(),
			fmt.Sprintf("region=%s shard=%d hops=%d", v.region.Name(), next, hops))
	}
	// next is a region shard index; the mailbox lane is the global index of
	// that shard's sub-engine within the ShardedEngine.
	v.se.Post(eng, v.se.LaneOf(v.shardEngines[next]), func(dst *simclock.Engine) {
		v.submitShard(dst, next, req, hops)
	})
}
