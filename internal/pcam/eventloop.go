// Event-loop-per-shard support for the VMC: when the deployment runs on a
// simclock.ShardedEngine, every region shard owns a private sub-engine and
// services its arrivals, completions and rejuvenation timers in parallel with
// the other shards.  Request dispatch is the region's own
// (cloudsim.Region.SubmitShard and Send, on the shards' lanes), and the
// VMC's control work splits accordingly:
//
//   - Cross-shard reactions move to the epoch barrier: a VM failure posts
//     its reactive recovery to the control timeline, where the controller
//     promotes a standby (possibly on another shard) and restarts the failed
//     VM on its own sub-engine — the direct cross-shard mutation the serial
//     hook performed becomes a mailbox post.
//   - The periodic control tick runs on the control timeline at its exact
//     interval, with exclusive access to all shards, exactly as before; its
//     per-shard monitor/analyze phase runs on the event loop's worker pool
//     (ShardedEngine.ParallelPhase).
package pcam

import (
	"fmt"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
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
	v.shardPhase = func(s int) { v.shardTick(v.tickNow, s) }
	v.region.BindShardEngines(engines)
	for _, vm := range v.region.VMs() {
		v.hookVMSharded(vm)
	}
	v.stop = se.Control().Ticker(v.cfg.ControlInterval, func(e *simclock.Engine) { v.ControlTick(e) })
}

// engineForVM returns the engine a timed transition of vm must be scheduled
// on: the VM's shard sub-engine when the controller runs sharded, otherwise
// the engine in hand (a standalone engine).
func (v *VMC) engineForVM(eng *simclock.Engine, vm *cloudsim.VM) *simclock.Engine {
	if v.se != nil {
		return v.region.ShardEngine(vm.ShardIndex())
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
		src := v.region.ShardEngine(failed.ShardIndex())
		v.se.PostControl(src, func(ctrl *simclock.Engine) {
			v.stats.ReactiveRecoveries++
			v.activateStandby(ctrl)
			failed.RecoverFromFailure(src)
		})
	}
}
