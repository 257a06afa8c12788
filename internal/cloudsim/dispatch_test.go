package cloudsim

import (
	"testing"

	"repro/internal/features"
	"repro/internal/simclock"
)

// scanShortest is the per-request two-pass scan the dispatch index replaced,
// kept as the oracle: collect the shard's ACTIVE VMs by state, start from the
// rr-th one and take the first strictly shorter queue in provisioning order.
func scanShortest(r *Region, shard, rr int) *VM {
	var active []*VM
	for _, vm := range r.shards[shard].vms {
		if vm.State() == StateActive {
			active = append(active, vm)
		}
	}
	if len(active) == 0 {
		return nil
	}
	best := active[rr%len(active)]
	for _, vm := range active {
		if vm.QueueLength() < best.QueueLength() {
			best = vm
		}
	}
	return best
}

// scanPromotion is the one-pass state scan StandbyPromotionCandidate
// replaced, kept as the oracle: the shard's first STANDBY VM in provisioning
// order and its ACTIVE count.
func scanPromotion(r *Region, shard int) (*VM, int) {
	var first *VM
	active := 0
	for _, vm := range r.shards[shard].vms {
		switch vm.State() {
		case StateStandby:
			if first == nil {
				first = vm
			}
		case StateActive:
			active++
		}
	}
	return first, active
}

// checkDispatchIndex compares the index-backed views of every shard with a
// full state scan: each shard's idle set with its ACTIVE VMs of queue length
// 0, its STANDBY set with its STANDBY VMs, and the promotion candidate with
// scanPromotion's.
func checkDispatchIndex(t *testing.T, r *Region, rrs ...int) {
	t.Helper()
	total := 0
	for s := 0; s < r.NumShards(); s++ {
		ix := &r.shards[s].ix
		words := (len(r.shards[s].vms) + 63) / 64
		if len(ix.zero) != words || len(ix.standby) != words {
			t.Fatalf("shard %d: idle set has %d words and STANDBY set %d for %d VMs, want %d",
				s, len(ix.zero), len(ix.standby), len(r.shards[s].vms), words)
		}
		count := 0
		for slot, vm := range r.shards[s].vms {
			if vm.State() == StateActive {
				count++
			}
			want := vm.State() == StateActive && vm.QueueLength() == 0
			if got := ix.zero[slot/64]&(1<<(slot%64)) != 0; got != want {
				t.Fatalf("shard %d slot %d (%s, queue %d): idle bit %v, want %v", s, slot, vm.State(), vm.QueueLength(), got, want)
			}
			if got := ix.standby[slot/64]&(1<<(slot%64)) != 0; got != (vm.State() == StateStandby) {
				t.Fatalf("shard %d slot %d (%s): STANDBY bit %v", s, slot, vm.State(), got)
			}
		}
		if n := len(r.shards[s].vms); n%64 != 0 && (ix.zero[n/64]|ix.standby[n/64])>>(n%64) != 0 {
			t.Fatalf("shard %d: a bit set has bits past its %d slots: idle %#x, STANDBY %#x", s, n, ix.zero[n/64], ix.standby[n/64])
		}
		total += count
		if got := r.ActiveCountInShard(s); got != count {
			t.Fatalf("shard %d: ActiveCountInShard = %d, state count = %d", s, got, count)
		}
		gotVM, gotActive := r.StandbyPromotionCandidate(s)
		if wantVM, wantActive := scanPromotion(r, s); gotVM != wantVM || gotActive != wantActive {
			t.Fatalf("shard %d: StandbyPromotionCandidate = %v, %d; scan = %v, %d", s, gotVM, gotActive, wantVM, wantActive)
		}
		for _, rr := range rrs {
			if got, want := r.PickShortestInShard(s, rr), scanShortest(r, s, rr); got != want {
				t.Fatalf("shard %d rr=%d: PickShortestInShard = %v, scan = %v", s, rr, got, want)
			}
		}
	}
	if got := r.ActiveCount(); got != total {
		t.Fatalf("ActiveCount = %d, state count = %d", got, total)
	}
}

func dispatchFuzzConfig() RegionConfig {
	return RegionConfig{
		Name:           "fuzz",
		Type:           PrivateVM, // 2 vCPUs: queues mix in-service and waiting requests
		InitialActive:  5,
		InitialStandby: 4,
		MaxVMs:         15,
		Shards:         3,
	}.WithDefaults()
}

// dispatchFuzzWideConfig has more than 64 VMs per shard, so each shard's
// idle set spans several words.  It holds at most 256 VMs, so an op's byte
// argument reaches every one of them.
func dispatchFuzzWideConfig() RegionConfig {
	return RegionConfig{
		Name:           "wide",
		Type:           PrivateVM,
		InitialActive:  180,
		InitialStandby: 20,
		MaxVMs:         256,
		Shards:         2,
	}.WithDefaults()
}

// FuzzShardDispatchIndex decodes the input as (op, arg) byte pairs driving
// lifecycle transitions, dispatches, completions and provisioning, and runs
// the schedule on a 3-shard region and on a 2-shard region with more than 64
// VMs per shard.  After every operation it checks that the dispatch index
// answers exactly what the state scan answers, the promotion candidate
// included.
func FuzzShardDispatchIndex(f *testing.F) {
	f.Add([]byte{4, 0, 4, 1, 4, 2, 4, 3, 5, 0, 1, 2, 4, 4, 0, 6, 5, 0})
	f.Add([]byte{2, 0, 5, 0, 5, 0, 0, 0, 4, 0, 4, 0, 3, 1, 4, 1, 6, 0, 0, 9})
	f.Add([]byte{4, 7, 4, 7, 4, 7, 4, 8, 4, 8, 1, 7, 0, 7, 5, 0, 5, 0, 5, 0})
	// Load the first 64 slots of the wide region's shard 0 (its even VMs),
	// so a pick past a loaded rr-th VM finds the first idle bit in the
	// second word; then complete, deactivate and fail some VMs and provision
	// two more.
	wide := []byte{}
	for vm := 0; vm < 128; vm += 2 {
		wide = append(wide, 4, byte(vm))
	}
	wide = append(wide, 5, 0, 5, 0, 1, 130, 3, 132, 6, 0, 6, 0, 4, 130)
	f.Add(wide)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 1024 {
			ops = ops[:1024] // longer schedules add run time, not coverage
		}
		for _, cfg := range []RegionConfig{dispatchFuzzConfig(), dispatchFuzzWideConfig()} {
			runDispatchSchedule(t, cfg, ops)
		}
	})
}

// runDispatchSchedule drives one region through the fuzz schedule ops,
// checking the dispatch index after every operation.
func runDispatchSchedule(t *testing.T, cfg RegionConfig, ops []byte) {
	t.Helper()
	eng := simclock.NewEngine(1)
	r := NewRegion(cfg, simclock.NewRNG(2))
	checkDispatchIndex(t, r, 0, 1, 2, 7)
	for i := 0; i+1 < len(ops); i += 2 {
		arg := int(ops[i+1])
		vm := r.VMs()[arg%len(r.VMs())]
		switch ops[i] % 7 {
		case 0:
			vm.Activate(eng)
		case 1:
			vm.Deactivate()
		case 2:
			vm.Rejuvenate(eng)
		case 3:
			vm.fail(eng)
		case 4:
			vm.Dispatch(eng, &Request{ID: uint64(i), ServiceFactor: 1, Arrival: eng.Now()})
		case 5:
			eng.Step() // the next service or rejuvenation completion
		case 6:
			r.Provision(1)
		}
		checkDispatchIndex(t, r, 0, 1, 2, arg)
	}
}

// TestDispatchIndexTieBreak pins the tie rule on a hand-built shard: the
// rr-th ACTIVE VM wins when it holds the minimum, otherwise the first VM
// holding it in provisioning order does.
func TestDispatchIndexTieBreak(t *testing.T) {
	eng := simclock.NewEngine(1)
	r := NewRegion(RegionConfig{Name: "tie", Type: M3Medium, InitialActive: 4, Shards: 1}.WithDefaults(), simclock.NewRNG(1))
	vms := r.shards[0].vms
	load := []int{2, 1, 3, 1}
	for i, n := range load {
		for j := 0; j < n; j++ {
			vms[i].Dispatch(eng, &Request{ServiceFactor: 1, Arrival: eng.Now()})
		}
	}
	for rr, want := range []*VM{vms[1], vms[1], vms[1], vms[3]} {
		if got := r.PickShortestInShard(0, rr); got != want {
			t.Errorf("rr=%d: picked %s, want %s", rr, got.ID(), want.ID())
		}
	}
	vms[1].Deactivate()
	if got := r.PickShortestInShard(0, 0); got != vms[3] {
		t.Errorf("after deactivating %s: picked %s, want %s", vms[1].ID(), got.ID(), vms[3].ID())
	}
	checkDispatchIndex(t, r, 0, 1, 2, 3, 4)
}

// TestDispatchIndexAllocatesNothing pins the per-request and per-tick hot
// paths at zero allocations: the index-backed pick and the fixed-array
// feature sample.
func TestDispatchIndexAllocatesNothing(t *testing.T) {
	eng := simclock.NewEngine(1)
	r := NewRegion(RegionConfig{Name: "pin", Type: M3Medium, InitialActive: 30, InitialStandby: 6, Shards: 3}.WithDefaults(), simclock.NewRNG(1))
	for i, vm := range r.ActiveVMs() {
		for j := 0; j < 1+i%3; j++ {
			vm.Dispatch(eng, &Request{ServiceFactor: 1, Arrival: eng.Now()})
		}
	}
	rr := 0
	if n := testing.AllocsPerRun(100, func() {
		rr++
		if r.PickShortestInShard(rr%3, rr) == nil {
			t.Fatal("no VM picked")
		}
	}); n != 0 {
		t.Errorf("PickShortestInShard allocates %v times per call, want 0", n)
	}
	vm := r.ActiveVMs()[0]
	if n := testing.AllocsPerRun(100, func() {
		if vm.Sample(eng.Now(), features.All).VM != vm.ID() {
			t.Fatal("sample of the wrong VM")
		}
	}); n != 0 {
		t.Errorf("VM.Sample allocates %v times per call, want 0", n)
	}
}
