// Sharded region engine benchmarks: one 5x10^3-VM region driven through its
// load balancer and controller at 1, 4 and 16 engine shards.  The per-request
// dispatch scan is O(pool/shards), so on any machine — single-core included —
// the 16-shard configuration sustains a multiple of the single-shard
// throughput; the ns/op ratio of BenchmarkRegionSharded_1 to
// BenchmarkRegionSharded_16 quantifies the win.
package repro

import (
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/pcam"
	"repro/internal/simclock"
)

const (
	benchShardedActive  = 4000
	benchShardedStandby = 1000
	// benchShardedRequests arrive uniformly over one simulated minute —
	// roughly the rate a 2.5x10^4-client population would generate.
	benchShardedRequests = 20000
)

// runShardedRegionBench simulates one minute of heavy traffic against a
// 5x10^3-VM region split across the given number of shards on the serial
// engine, whose control tick walks the shards sequentially.
func runShardedRegionBench(b *testing.B, shards int) {
	b.Helper()
	cfg := cloudsim.RegionConfig{
		Name:           "megaregion",
		Provider:       "aws",
		Location:       "bench",
		Type:           cloudsim.M3Medium,
		InitialActive:  benchShardedActive,
		InitialStandby: benchShardedStandby,
		MaxVMs:         benchShardedActive + benchShardedStandby,
		Shards:         shards,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		eng := simclock.NewEngine(42)
		region := cloudsim.NewRegion(cfg, simclock.NewRNG(42))
		vmc, err := pcam.NewVMC(region, pcam.OraclePredictor{}, pcam.Config{ElasticityEnabled: false})
		if err != nil {
			b.Fatal(err)
		}
		vmc.Start(eng)
		served := 0
		for j := 0; j < benchShardedRequests; j++ {
			at := simclock.Duration(float64(j) * 60.0 / benchShardedRequests)
			id := uint64(j)
			eng.ScheduleFunc(at, func(e *simclock.Engine) {
				vmc.Submit(e, &cloudsim.Request{ID: id, ServiceFactor: 1, Arrival: e.Now(),
					OnDone: func(o cloudsim.Outcome) {
						if !o.Dropped {
							served++
						}
					}})
			})
		}
		b.StartTimer()
		if err := eng.Run(5 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
			b.Fatal(err)
		}
		b.StopTimer()
		vmc.Stop()
		if served < benchShardedRequests*9/10 {
			b.Fatalf("only %d of %d requests served", served, benchShardedRequests)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(shards), "shards")
	b.ReportMetric(float64(benchShardedRequests)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

func BenchmarkRegionSharded_1(b *testing.B)  { runShardedRegionBench(b, 1) }
func BenchmarkRegionSharded_4(b *testing.B)  { runShardedRegionBench(b, 4) }
func BenchmarkRegionSharded_16(b *testing.B) { runShardedRegionBench(b, 16) }

// runEventLoopRegionBench is the same heavy-traffic minute against the
// 16-shard region, but on the parallel event loop: every shard is its own
// sub-engine servicing its arrivals, service completions and rejuvenation
// timers, with the shard loops — and the control tick's per-shard phase —
// fanned out to eventWorkers goroutines in lockstep epochs
// (simclock.ShardedEngine).  Arrivals are generated shard-locally (request j
// enters shard j mod 16), so the serviced path — the bulk of the run —
// executes fully in parallel.  The ns/op ratio of BenchmarkRegionSharded_16
// (serial event loop, same shard count) to BenchmarkRegionSharded_EventLoop_16
// is the request-service speedup on a multi-core host.  The worker count is
// an upper bound: the engine runs each epoch on the pool only when that
// measures cheaper per event than running the shards inline, so on one or
// two busy cores the pooled variants should stay within a few percent of
// the inline one (the trials' pooled epochs), and the "pooled-share" metric
// records which mode the host chose.
func runEventLoopRegionBench(b *testing.B, shards, eventWorkers int) {
	b.Helper()
	cfg := cloudsim.RegionConfig{
		Name:           "megaregion",
		Provider:       "aws",
		Location:       "bench",
		Type:           cloudsim.M3Medium,
		InitialActive:  benchShardedActive,
		InitialStandby: benchShardedStandby,
		MaxVMs:         benchShardedActive + benchShardedStandby,
		Shards:         shards,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		se := simclock.NewShardedEngine(shards, 42, simclock.DefaultEpoch, eventWorkers)
		region := cloudsim.NewRegion(cfg, simclock.NewRNG(42))
		vmc, err := pcam.NewVMC(region, pcam.OraclePredictor{}, pcam.Config{ElasticityEnabled: false})
		if err != nil {
			b.Fatal(err)
		}
		engines := make([]*simclock.Engine, shards)
		for s := range engines {
			engines[s] = se.Shard(s)
		}
		vmc.StartSharded(se, engines)
		served := make([]int, shards) // per-shard counters: completions stay shard-local
		for j := 0; j < benchShardedRequests; j++ {
			at := simclock.Duration(float64(j) * 60.0 / benchShardedRequests)
			id := uint64(j)
			shard := j % shards
			engines[shard].ScheduleFunc(at, func(e *simclock.Engine) {
				region.SubmitShard(e, shard, &cloudsim.Request{ID: id, ServiceFactor: 1, Arrival: e.Now(),
					OnDone: func(o cloudsim.Outcome) {
						if !o.Dropped {
							served[shard]++
						}
					}})
			})
		}
		b.StartTimer()
		if err := se.Run(5 * simclock.Minute); err != nil && err != simclock.ErrHorizonReached {
			b.Fatal(err)
		}
		b.StopTimer()
		vmc.Stop()
		b.ReportMetric(se.FanOut().PooledShare(), "pooled-share")
		total := 0
		for _, n := range served {
			total += n
		}
		if total < benchShardedRequests*9/10 {
			b.Fatalf("only %d of %d requests served", total, benchShardedRequests)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(shards), "shards")
	b.ReportMetric(float64(benchShardedRequests)*float64(b.N)/b.Elapsed().Seconds(), "req/s")
}

// The _EventLoop variants run the 16-shard configuration with the event loop
// fanned out to 1, 4 and 16 shard-loop goroutines.  Output is byte-identical
// across the three (the event-loop equivalence suite pins that); the ns/op
// ratio against BenchmarkRegionSharded_16 quantifies the request-service
// speedup on multi-core hosts — the number the nightly GOMAXPROCS=4 CI job
// records.
func BenchmarkRegionSharded_EventLoop_1(b *testing.B)  { runEventLoopRegionBench(b, 16, 1) }
func BenchmarkRegionSharded_EventLoop_4(b *testing.B)  { runEventLoopRegionBench(b, 16, 4) }
func BenchmarkRegionSharded_EventLoop_16(b *testing.B) { runEventLoopRegionBench(b, 16, 16) }
