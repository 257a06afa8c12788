// Per-layer benchmarks of the two per-VM loops of a 5x10^3-VM, 16-shard
// region (the megaclients shape): the control tick's feature sampling and the
// load balancer's shortest-queue pick.  One op is a fixed batch of units, so
// the gate's single -benchtime=1x sample still times thousands of them; each
// benchmark reports ns and allocs per unit next to the per-op figures.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/simclock"
)

// benchLayerRegion builds the megaclients-shaped region the per-layer
// benchmarks run against.
func benchLayerRegion() *cloudsim.Region {
	return cloudsim.NewRegion(cloudsim.RegionConfig{
		Name:           "megaregion",
		Provider:       "aws",
		Location:       "bench",
		Type:           cloudsim.M3Medium,
		InitialActive:  benchShardedActive,
		InitialStandby: benchShardedStandby,
		MaxVMs:         benchShardedActive + benchShardedStandby,
		Shards:         16,
	}, simclock.NewRNG(42))
}

// runPerUnit times b.N calls of op, each worth units units of work, and
// reports ns/<unit> and allocs/<unit>.
func runPerUnit(b *testing.B, unit string, units int, op func()) {
	b.Helper()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(units)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/"+unit)
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/"+unit)
}

// benchSampleTicks is the number of control ticks' worth of samples in one op.
const benchSampleTicks = 25

// BenchmarkVMSample is the control tick's monitor loop: one op samples the
// F2PM feature vector of every ACTIVE VM benchSampleTicks times.
func BenchmarkVMSample(b *testing.B) {
	region := benchLayerRegion()
	active := region.ActiveVMs()
	sum := 0.0
	runPerUnit(b, "sample", benchSampleTicks*len(active), func() {
		for tick := 1; tick <= benchSampleTicks; tick++ {
			now := simclock.Time(30 * tick)
			for _, vm := range active {
				sum += vm.Sample(now).TimeS
			}
		}
	})
	if sum == 0 {
		b.Fatal("no samples taken")
	}
}

// benchDispatchPicks is the number of load-balancer picks in one op.
const benchDispatchPicks = 200_000

// BenchmarkShardDispatch is the load balancer's per-request decision: one op
// makes benchDispatchPicks shortest-queue picks, rotating over the shards,
// against VMs holding queues of 1–5 requests so that no pick can stop early
// at an empty VM.
func BenchmarkShardDispatch(b *testing.B) {
	region := benchLayerRegion()
	eng := simclock.NewEngine(42)
	for i, vm := range region.ActiveVMs() {
		for j := 0; j <= i*7%5; j++ {
			vm.Dispatch(eng, &cloudsim.Request{ID: uint64(i), ServiceFactor: 1, Arrival: eng.Now()})
		}
	}
	shards := region.NumShards()
	picked := 0
	runPerUnit(b, "dispatch", benchDispatchPicks, func() {
		for rr := 0; rr < benchDispatchPicks; rr++ {
			if region.PickShortestInShard(rr%shards, rr) != nil {
				picked++
			}
		}
	})
	if picked != b.N*benchDispatchPicks {
		b.Fatalf("%d of %d picks found no ACTIVE VM", b.N*benchDispatchPicks-picked, b.N*benchDispatchPicks)
	}
}
