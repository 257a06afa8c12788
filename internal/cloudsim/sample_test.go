package cloudsim

import (
	"math"
	"testing"

	"repro/internal/features"
	"repro/internal/simclock"
)

// sampleRef is Sample as it was written before the unread draws were paid in
// runs: one measure call per feature, in slot order, each drawing its own
// noise (or discarding one Normal when the mask leaves it out).  It is the
// oracle FuzzSampleMatchesReference compares Sample with.
func sampleRef(vm *VM, now simclock.Time, mask features.Mask) features.Vector {
	v := features.NewVector(vm.id, now.Seconds())
	intervalS := now.Sub(vm.intervalStart).Seconds()
	if intervalS <= 0 {
		intervalS = 1
	}
	rate := float64(vm.intervalServed) / intervalS
	meanResp := 0.0
	if vm.intervalServed > 0 {
		meanResp = vm.intervalRespSum / float64(vm.intervalServed)
	}
	anomalyRate := float64(vm.intervalAnomaly) / intervalS

	baseMem := 0.18 * vm.cfg.Type.MemoryMB
	used := baseMem + vm.LeakedMB()
	if used > vm.cfg.Type.MemoryMB {
		used = vm.cfg.Type.MemoryMB
	}
	swap := 0.0
	if over := vm.LeakedMB() - 0.55*vm.cfg.Type.MemoryMB; over > 0 {
		swap = over
	}
	util := float64(vm.inFlight) / float64(vm.cfg.Type.VCPUs)
	if util > 1 {
		util = 1
	}

	measure := func(i int, x, rel float64) {
		if x == 0 {
			return
		}
		if mask&(1<<i) == 0 {
			if rel > 0 {
				vm.rng.Normal(0, rel)
			}
			return
		}
		if rel > 0 {
			x *= 1 + vm.rng.Normal(0, rel)
		}
		v.SetSlot(i, x)
	}
	measure(features.SlotMemUsedMB, used, 0.02)
	measure(features.SlotMemFreeMB, math.Max(vm.cfg.Type.MemoryMB-used, 0), 0.02)
	measure(features.SlotSwapUsedMB, swap, 0.05)
	measure(features.SlotHeapMB, 0.6*baseMem+vm.leakedMB, 0.03)
	measure(features.SlotThreadCount, 32+float64(vm.zombieThreads)+4*float64(vm.inFlight), 0.02)
	measure(features.SlotZombieThreads, float64(vm.zombieThreads), 0)
	measure(features.SlotCPUUtilization, 0.1+0.8*util, 0.05)
	if v.Slot(features.SlotCPUUtilization) > 1 {
		v.SetSlot(features.SlotCPUUtilization, 1)
	}
	measure(features.SlotCPUTimeSec, vm.busySeconds, 0)
	measure(features.SlotDiskUsedMB, 0.3*vm.cfg.Type.DiskGB*1024+0.05*vm.LeakedMB(), 0.01)
	measure(features.SlotNetConnections, 8+2*rate, 0.05)
	measure(features.SlotRequestRate, rate, 0.03)
	measure(features.SlotResponseTimeMs, meanResp*1000, 0.03)
	measure(features.SlotQueueLength, float64(vm.QueueLength()), 0)
	measure(features.SlotPageFaultRate, 5+30*swap/math.Max(vm.cfg.Type.MemoryMB, 1), 0.10)
	measure(features.SlotContextSwitches, 200+80*rate, 0.10)
	measure(features.SlotUptimeSec, vm.Uptime(now).Seconds(), 0)
	measure(features.SlotGCPauseMs, 2+40*vm.LeakedMB()/math.Max(vm.memoryBudgetMB(), 1), 0.15)
	measure(features.SlotOpenFiles, 64+3*rate, 0.05)
	measure(features.SlotSocketsTimeWait, 4*rate, 0.15)
	measure(features.SlotAnomalyEventRate, anomalyRate, 0)

	vm.intervalServed = 0
	vm.intervalRespSum = 0
	vm.intervalAnomaly = 0
	vm.intervalStart = now
	return v
}

// FuzzSampleMatchesReference builds a VM in a fuzzed state (any instance
// type; no traffic, or a served interval; no leak up to past the swap
// threshold and the memory size; zombie threads and requests in flight) and
// samples it twice, the second time over an empty interval, under a fuzzed
// mask: none, all, the oracle controller's, or arbitrary bits.  Sample and
// sampleRef must agree bit for bit on every slot and leave the VM's stream
// in the same state.
func FuzzSampleMatchesReference(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint32(0), uint8(0), uint16(0), uint16(0), uint8(0), uint16(0), uint32(0), uint16(0), uint32(0), uint32(0))
	f.Add(uint64(2), uint8(1), uint32(0), uint8(1), uint16(40000), uint16(30), uint8(1), uint16(500), uint32(20000), uint16(7), uint32(60000), uint32(9000))
	f.Add(uint64(3), uint8(2), uint32(0), uint8(0), uint16(65535), uint16(900), uint8(5), uint16(120), uint32(9000), uint16(3), uint32(30000), uint32(100))
	f.Add(uint64(4), uint8(3), uint32(0x5a5a5), uint8(2), uint16(20000), uint16(3), uint8(2), uint16(0), uint32(0), uint16(0), uint32(0), uint32(1))
	f.Fuzz(func(t *testing.T, seed uint64, maskKind uint8, maskBits uint32, typ uint8, leak, zombies uint16,
		inFlight uint8, served uint16, respMs uint32, anomalies uint16, intervalMs, busyMs uint32) {
		cfg := testVMConfig()
		cfg.Type = []InstanceType{M3Medium, M3Small, PrivateVM}[typ%3]
		var mask features.Mask
		switch maskKind % 4 {
		case 1:
			mask = features.All
		case 2:
			mask = features.MaskOf(features.RequestRate, features.ResponseTimeMs)
		case 3:
			mask = features.Mask(maskBits) & features.All
		}
		vm := NewVM("fuzz", cfg, *simclock.NewRNG(seed))
		vm.leakedMB = float64(leak) / math.MaxUint16 * 1.2 * cfg.Type.MemoryMB
		vm.zombieThreads = int(zombies) % (cfg.Type.MaxThreads + 1)
		vm.inFlight = int(inFlight % 8)
		vm.intervalServed = uint64(served)
		vm.intervalRespSum = float64(respMs) / 1000 * float64(served)
		vm.intervalAnomaly = uint64(anomalies)
		vm.busySeconds = float64(busyMs) / 1000
		ref := *vm
		now := simclock.Time(float64(intervalMs) / 1000)
		for k := 0; k < 2; k++ {
			got, want := vm.Sample(now, mask), sampleRef(&ref, now, mask)
			for i := 0; i < features.NumFeatures; i++ {
				if math.Float64bits(got.Slot(i)) != math.Float64bits(want.Slot(i)) {
					t.Fatalf("sample %d mask %#x slot %d (%s): Sample %v, reference %v",
						k, mask, i, features.AllNames()[i], got.Slot(i), want.Slot(i))
				}
			}
			if vm.rng != ref.rng {
				t.Fatalf("sample %d mask %#x: the VM's stream diverged from the reference's", k, mask)
			}
		}
	})
}
