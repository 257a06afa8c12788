package cloudsim

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/simclock"
	"repro/internal/tracing"
)

// idleLoad is the load slot of a VM that is not ACTIVE: larger than any queue
// length, so a shortest-queue search never picks it.
const idleLoad = math.MaxInt32

// dispatchIndex is one shard's load-balancer view of its VMs, kept current as
// the VMs change instead of being rebuilt from their states per request.
// Slots are the VMs' positions in the shard's provisioning order.
//
// Ownership follows the VM-state rule: the index is written only by the VM
// transitions and queue changes of the shard's own VMs, which run on the
// shard's lane or at the epoch barrier, so it needs no locking and its
// contents never depend on how lanes interleave.
type dispatchIndex struct {
	load   []int32 // per slot: queue length when ACTIVE, idleLoad otherwise
	active []int32 // ascending slots of the ACTIVE VMs
}

// add appends a slot for a newly provisioned (non-ACTIVE) VM.
func (ix *dispatchIndex) add() int32 {
	ix.load = append(ix.load, idleLoad)
	return int32(len(ix.load) - 1)
}

// setActive moves a slot into or out of the ACTIVE set, keeping the set
// ascending.  queue is the VM's queue length, recorded when it turns ACTIVE.
func (ix *dispatchIndex) setActive(slot int32, on bool, queue int) {
	at, _ := slices.BinarySearch(ix.active, slot)
	if on {
		ix.load[slot] = int32(queue)
		ix.active = slices.Insert(ix.active, at, slot)
		return
	}
	ix.load[slot] = idleLoad
	ix.active = slices.Delete(ix.active, at, at+1)
}

// pick returns the slot of the shortest-queue ACTIVE VM with round-robin
// tie-breaking, or -1 when no VM is ACTIVE: the rr-th ACTIVE slot when it
// holds the minimum load, otherwise the first slot holding the minimum.
func (ix *dispatchIndex) pick(rr int) int32 {
	n := len(ix.active)
	if n == 0 {
		return -1
	}
	best := ix.active[rr%n]
	low := ix.load[best]
	if low == 0 {
		return best // no load is below zero
	}
	// Branch-free minimum first; only a strictly lower one costs a second,
	// early-exiting pass for its first slot.
	m := low
	for _, q := range ix.load {
		m = min(m, q)
	}
	if m == low {
		return best
	}
	for slot, q := range ix.load {
		if q == m {
			return int32(slot)
		}
	}
	return best
}

// PickShortestInShard returns the ACTIVE VM of shard i with the shortest
// queue, or nil when the shard has no ACTIVE VM.  Ties go to the rr-th ACTIVE
// VM (rr >= 0, taken modulo the shard's ACTIVE count) when it holds the
// minimum, and otherwise to the first VM holding it in provisioning order.
// It reads the shard's dispatch index, so it allocates nothing and touches no
// VM; call it from the shard's own lane or at the epoch barrier.
func (r *Region) PickShortestInShard(i, rr int) *VM {
	sh := r.shards[i]
	slot := sh.ix.pick(rr)
	if slot < 0 {
		return nil
	}
	return sh.vms[slot]
}

// SubmitShard is the shard-local load balancer of a region on a sharded
// event loop: the request is dispatched to the ACTIVE VM of the given shard
// with the shortest queue, ties broken by the shard's round-robin cursor.
// Call it on the shard's own lane.  When the shard has no ACTIVE VM the
// request hops to the next shard through its mailbox, never by touching the
// foreign shard directly, and is dropped once every shard has been tried.
// With one shard this is the whole-pool shortest-queue balancer.
func (r *Region) SubmitShard(eng *simclock.Engine, shard int, req *Request) {
	r.submit(eng, r.shards[shard], req, 0)
}

// submit is SubmitShard for a request that has already found hops shards
// empty.
func (r *Region) submit(eng *simclock.Engine, sh *shard, req *Request, hops int) {
	if len(sh.ix.active) == 0 {
		if hops+1 >= len(r.shards) {
			req.Finish(eng, Outcome{Request: req, Region: r.cfg.Name, Start: eng.Now(), End: eng.Now(), Dropped: true})
			return
		}
		next := r.shards[(sh.index+1)%len(r.shards)]
		if req.Trace != nil {
			// Guarded so the detail string is only built for sampled requests.
			req.Trace.Event(tracing.EventShardHop, eng.Now(),
				fmt.Sprintf("region=%s shard=%d hops=%d", r.cfg.Name, next.index, hops+1))
		}
		r.post(eng, next, req, eng.Now(), hops+1)
		return
	}
	sh.rr++
	sh.vms[sh.ix.pick(sh.rr)].Dispatch(eng, req)
}

// Send is the one way a request reaches a shard of a region bound to a
// sharded event loop, from any lane: req, in hand on engine eng, is
// submitted to the shard at `at`, the end of its one-way trip.  On the
// shard's own lane that is a direct submission or a timer.  From another
// lane the request rides the mailbox, arriving at `at` or at the delivering
// barrier if that is later, and its home becomes eng's lane unless it
// already has one, so its completion travels back there.  Either way the
// request is its own event (arrival), so no path allocates.
func (r *Region) Send(eng *simclock.Engine, shard int, req *Request, at simclock.Time) {
	sh := r.shards[shard]
	if sh.engine == eng {
		if at > eng.Now() {
			req.startTrip(at, 0)
			eng.ScheduleAt(at, (*arrival)(req))
		} else {
			r.submit(eng, sh, req, 0)
		}
		return
	}
	if req.Trace != nil {
		// Guarded so the detail string is only built for sampled requests.
		se := eng.Cluster()
		req.Trace.Event(tracing.EventMailbox, eng.Now(),
			fmt.Sprintf("lane=%d->%d", se.LaneOf(eng), se.LaneOf(sh.engine)))
	}
	r.post(eng, sh, req, at, 0)
}

// post sends req, due at `at` after hops empty shards, to the mailbox lane
// of sh's engine.
func (r *Region) post(eng *simclock.Engine, sh *shard, req *Request, at simclock.Time, hops int) {
	if req.Home == nil {
		req.Home = eng
	}
	req.startTrip(at, hops)
	se := eng.Cluster()
	se.PostEvent(eng, se.LaneOf(sh.engine), (*arrival)(req))
}

// arrival is a request on its way to a shard, seen as its own event.  It
// fires on the destination shard's engine, delivered from the mailbox at a
// barrier or from a timer, and finds the shard as the engine's owner
// (BindShardEngines).  On its first firing it reschedules itself for any
// latency still outstanding; it submits on its second firing
// unconditionally, since now + (due - now) can miss the due time by one ulp.
type arrival Request

// Fire implements simclock.Event.
func (a *arrival) Fire(eng *simclock.Engine) {
	req := (*Request)(a)
	if !req.delayed {
		req.delayed = true
		if remaining := req.end.Sub(eng.Now()); remaining > 0 {
			eng.Schedule(remaining, a)
			return
		}
	}
	sh := eng.Owner().(*shard)
	sh.region.submit(eng, sh, req, int(req.hops))
}

// setState is the one funnel every lifecycle transition goes through, so the
// owning shard's dispatch index always mirrors which VMs are ACTIVE.
func (vm *VM) setState(s VMState) {
	was := vm.state
	vm.state = s
	if vm.ix != nil && (was == StateActive) != (s == StateActive) {
		vm.ix.setActive(vm.slot, s == StateActive, vm.QueueLength())
	}
}

// syncLoad publishes the VM's queue length to its shard's dispatch index.
// It must follow every change of QueueLength, before any completion callback
// that could dispatch again runs.
func (vm *VM) syncLoad() {
	if vm.ix != nil && vm.state == StateActive {
		vm.ix.load[vm.slot] = int32(vm.QueueLength())
	}
}
