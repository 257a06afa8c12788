package cloudsim

import (
	"math"
	"slices"
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
