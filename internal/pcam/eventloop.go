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
//     per-shard monitor/analyze phase fans out over the event loop's workers
//     (ShardedEngine.Workers) via ParallelPhase.
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
		// Hop to the next shard through its mailbox.
		next := (shard + 1) % v.region.NumShards()
		if req.Trace != nil {
			// Guarded so the detail string is only built for sampled requests.
			req.Trace.Event(tracing.EventShardHop, eng.Now(),
				fmt.Sprintf("region=%s shard=%d hops=%d", v.region.Name(), next, hops+1))
		}
		v.post(eng, &forward{vmc: v, shard: next, req: req, sendAt: eng.Now(), hops: hops + 1})
		return
	}
	v.shardRRs[shard]++
	v.region.PickShortestInShard(shard, v.shardRRs[shard]).Dispatch(eng, req)
}

// Send is the one way a request reaches a shard of the region from any lane
// of the event loop: req, in hand on engine eng, is submitted to the shard at
// sendAt (the end of its one-way trip).  On the shard's own lane that is a
// direct submission or a timer.  From another lane the request rides the
// mailbox, arriving at sendAt or at the delivering barrier if that is
// later, and its home becomes eng's lane unless it already has one, so its
// completion travels back there.
func (v *VMC) Send(eng *simclock.Engine, shard int, req *cloudsim.Request, sendAt simclock.Time) {
	if v.shardEngines[shard] == eng {
		if sendAt > eng.Now() {
			eng.ScheduleAt(sendAt, &forward{vmc: v, shard: shard, req: req, sendAt: sendAt})
		} else {
			v.submitShard(eng, shard, req, 0)
		}
		return
	}
	if req.Trace != nil {
		// Guarded so the detail string is only built for sampled requests.
		req.Trace.Event(tracing.EventMailbox, eng.Now(),
			fmt.Sprintf("lane=%d->%d", v.se.LaneOf(eng), v.se.LaneOf(v.shardEngines[shard])))
	}
	v.post(eng, &forward{vmc: v, shard: shard, req: req, sendAt: sendAt})
}

// post hands f to the mailbox lane of its shard's sub-engine.
func (v *VMC) post(eng *simclock.Engine, f *forward) {
	if f.req.Home == nil {
		f.req.Home = eng
	}
	v.se.PostEvent(eng, v.se.LaneOf(v.shardEngines[f.shard]), f)
}

// forward is a request in flight to one shard of a VMC, due there at sendAt
// after hops failed shard attempts.  It is its own event: delivered from the
// mailbox at a barrier, it reschedules itself on the destination's timeline
// for any latency still outstanding, and submits on its second firing
// unconditionally — now + (sendAt − now) can miss sendAt by one ulp.
type forward struct {
	vmc     *VMC
	shard   int
	req     *cloudsim.Request
	sendAt  simclock.Time
	hops    int
	delayed bool
}

// Fire implements simclock.Event.
func (f *forward) Fire(eng *simclock.Engine) {
	if !f.delayed {
		f.delayed = true
		if remaining := f.sendAt.Sub(eng.Now()); remaining > 0 {
			eng.Schedule(remaining, f)
			return
		}
	}
	f.vmc.submitShard(eng, f.shard, f.req, f.hops)
}
