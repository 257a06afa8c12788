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
//     per-shard monitor/analyze phase runs on the event loop's worker pool
//     (ShardedEngine.ParallelPhase).
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
	v.shardPhase = func(s int) { v.shardTick(v.tickNow, s) }
	v.shardRRs = make([]int, len(engines))
	v.forwards = newForwardPool(se.NumShards() + 1)
	se.OnBarrier(v.forwards.handBack)
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
		v.post(eng, next, req, eng.Now(), hops+1)
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
// completion travels back there.  Timers and posts both carry a pooled
// forward, so no path allocates per request.
func (v *VMC) Send(eng *simclock.Engine, shard int, req *cloudsim.Request, sendAt simclock.Time) {
	dst := v.region.ShardEngine(shard)
	if dst == eng {
		if sendAt > eng.Now() {
			eng.ScheduleAt(sendAt, v.forwards.get(v.se.LaneOf(eng), forward{vmc: v, shard: shard, req: req, sendAt: sendAt}))
		} else {
			v.submitShard(eng, shard, req, 0)
		}
		return
	}
	if req.Trace != nil {
		// Guarded so the detail string is only built for sampled requests.
		req.Trace.Event(tracing.EventMailbox, eng.Now(),
			fmt.Sprintf("lane=%d->%d", v.se.LaneOf(eng), v.se.LaneOf(dst)))
	}
	v.post(eng, shard, req, sendAt, 0)
}

// post hands a forward of req to the mailbox lane of the shard's sub-engine.
func (v *VMC) post(eng *simclock.Engine, shard int, req *cloudsim.Request, sendAt simclock.Time, hops int) {
	if req.Home == nil {
		req.Home = eng
	}
	f := v.forwards.get(v.se.LaneOf(eng), forward{vmc: v, shard: shard, req: req, sendAt: sendAt, hops: hops})
	v.se.PostEvent(eng, v.se.LaneOf(v.region.ShardEngine(shard)), f)
}

// forward is a request in flight to one shard of a VMC, due there at sendAt
// after hops failed shard attempts.  It is its own event: delivered from the
// mailbox at a barrier, it reschedules itself on the destination's timeline
// for any latency still outstanding, and submits on its second firing
// unconditionally — now + (sendAt − now) can miss sendAt by one ulp.  It goes
// back to its pool as it submits.
type forward struct {
	vmc     *VMC
	shard   int
	req     *cloudsim.Request
	sendAt  simclock.Time
	hops    int
	delayed bool
	owner   int // lane whose free list the forward belongs to
}

// Fire implements simclock.Event.
func (f *forward) Fire(eng *simclock.Engine) {
	v := f.vmc
	if !f.delayed {
		f.delayed = true
		if remaining := f.sendAt.Sub(eng.Now()); remaining > 0 {
			eng.Schedule(remaining, f)
			return
		}
	}
	shard, req, hops := f.shard, f.req, f.hops
	v.forwards.put(v.se.LaneOf(eng), f)
	v.submitShard(eng, shard, req, hops)
}

// forwardPool recycles one VMC's forwards under the ownership rule of
// cloudsim.RequestPool: a lane takes forwards only from its own free list,
// and a forward is freed on the lane it was consumed on.  One consumed on its
// owner's lane goes straight back to the owner's free list; one consumed on
// another lane waits on that lane's return list until the next barrier,
// where handBack (one goroutine, no shard running) moves it home.  During a
// shard phase each lane therefore touches only its own two lists, and a
// lane's pool never holds more forwards than it had in flight at its peak,
// however lopsided the traffic between lanes.
type forwardPool struct {
	free [][]*forward // free[lane]: forwards owned by lane, ready for reuse
	back [][]*forward // back[lane]: forwards lane consumed for other owners
}

func newForwardPool(lanes int) forwardPool {
	return forwardPool{free: make([][]*forward, lanes), back: make([][]*forward, lanes)}
}

// get takes a forward from lane's free list, allocating only when it is
// empty, and fills it with trip, owned by lane, so nothing of its
// previous trip survives.
func (p *forwardPool) get(lane int, trip forward) *forward {
	var f *forward
	if n := len(p.free[lane]); n > 0 {
		f = p.free[lane][n-1]
		p.free[lane] = p.free[lane][:n-1]
	} else {
		f = new(forward)
	}
	trip.owner = lane
	*f = trip
	return f
}

// put frees f, consumed on lane.
func (p *forwardPool) put(lane int, f *forward) {
	f.req = nil
	if f.owner == lane {
		p.free[lane] = append(p.free[lane], f)
	} else {
		p.back[lane] = append(p.back[lane], f)
	}
}

// handBack returns every forward consumed on a foreign lane to its owner, in
// lane order.  It runs at each epoch barrier (ShardedEngine.OnBarrier).
func (p *forwardPool) handBack() {
	for lane, back := range p.back {
		for i, f := range back {
			p.free[f.owner] = append(p.free[f.owner], f)
			back[i] = nil
		}
		p.back[lane] = back[:0]
	}
}
