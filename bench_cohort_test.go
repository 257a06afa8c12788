// Cohort-compression benchmarks: the cost of representing 10^4..10^6
// effective clients as counted state buckets plus batched requests.  The
// workload-level benchmarks drive a CohortPopulation against a stub
// dispatcher so the number isolates the cohort machinery itself (binomial
// splits, multinomial class splits, batch emission and tracer browsers); the
// Megaclients benchmark runs the full registered scenario — 10^6 effective
// clients on the 16-shard megaregion — and is the headline perf claim of the
// compression: >= 100x the clients of the 10^3-client scenarios at the same
// order of s/op and B/op.  Both report clients/s (effective clients simulated
// per wall-clock second) and B/client (allocated bytes per effective client)
// as bench-JSON extras so the nightly trend records the per-client cost.
package repro

import (
	"runtime"
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/experiment"
	"repro/internal/simclock"
	"repro/internal/workload"
)

// runCohortPopulationBench simulates one minute of a cohort-compressed
// population against a fixed-delay dispatcher stub.  The 60 s think time
// matches the megaclients scenario, so the per-tick split work — not the
// downstream VM model — dominates the measurement.  Every size simulates the
// same total of 10^6 client-minutes per iteration (the smaller populations
// loop the simulation), keeping each op tens of milliseconds — far above the
// timing jitter of the benchtime=1x regression gate — while the clients/s
// and B/client extras stay per-client comparable across the trio.
func runCohortPopulationBench(b *testing.B, clients int) {
	b.Helper()
	reps := 1_000_000 / clients
	if reps < 1 {
		reps = 1
	}
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < reps; r++ {
			eng := simclock.NewEngine(42)
			met := workload.NewMetrics()
			var served uint64
			target := workload.DispatcherFunc(func(e *simclock.Engine, req *cloudsim.Request) {
				arrival := req.Arrival
				e.ScheduleFunc(50*simclock.Millisecond, func(e2 *simclock.Engine) {
					served += req.Weight()
					req.Finish(e2, cloudsim.Outcome{Request: req, Start: arrival, End: e2.Now()})
				})
			})
			c := workload.NewCohortPopulation(workload.CohortConfig{
				Region:         "bench",
				Clients:        clients,
				ThinkTimeMean:  60 * simclock.Second,
				Tick:           simclock.Second,
				MaxBatch:       128,
				TracerFraction: 0.01,
				Seed:           42,
			}, target, met)
			c.Start(eng)
			if err := eng.Run(60 * simclock.Second); err != nil && err != simclock.ErrHorizonReached {
				b.Fatal(err)
			}
			c.Stop()
			if served == 0 || met.ResponseSamples("bench") == 0 {
				b.Fatalf("degenerate run: served=%d samples=%d", served, met.ResponseSamples("bench"))
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(clients) * float64(reps) * float64(b.N)
	b.ReportMetric(total/b.Elapsed().Seconds(), "clients/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/client")
}

func BenchmarkCohortPopulation_1e4(b *testing.B) { runCohortPopulationBench(b, 10_000) }
func BenchmarkCohortPopulation_1e5(b *testing.B) { runCohortPopulationBench(b, 100_000) }
func BenchmarkCohortPopulation_1e6(b *testing.B) { runCohortPopulationBench(b, 1_000_000) }

// runMegaclientsScenarioBench runs one registered scenario per iteration and
// reports the effective-client throughput and per-client allocation extras.
// A non-nil mutate edits the built scenario before the runs (the traced
// variant switches on the span layer this way).
func runMegaclientsScenarioBench(b *testing.B, name string, mutate func(*experiment.Scenario)) {
	b.Helper()
	np, err := experiment.PolicyByKey("policy2")
	if err != nil {
		b.Fatal(err)
	}
	sc, err := experiment.BuildScenario(name, 42)
	if err != nil {
		b.Fatal(err)
	}
	if mutate != nil {
		mutate(&sc)
	}
	eff := sc.EffectiveClients()
	b.ReportAllocs()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, be, err := experiment.RunBackend(sc, np)
		if err != nil {
			b.Fatal(err)
		}
		if res.Eras == 0 || res.SuccessRatio < 0.5 {
			b.Fatalf("degenerate run: eras=%d success=%.3f", res.Eras, res.SuccessRatio)
		}
		b.ReportMetric(res.SuccessRatio, "success-ratio")
		b.ReportMetric(experiment.EngineFanOut(be).PooledShare(), "pooled-share")
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	b.ReportMetric(float64(eff)*float64(b.N)/b.Elapsed().Seconds(), "clients/s")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(eff)/float64(b.N), "B/client")
}

// BenchmarkMegaclients runs the full megaclients scenario — 10^6 effective
// clients (1% tracers) against the 16-shard megaregion on the parallel event
// loop, 30 simulated minutes — once per iteration.  Its counterpart below
// runs the same pool, engine and horizon with the ordinary 2x10^3-browser
// population (megaregion-eventloop), so the pair recorded in
// BENCH_baseline.json is the compression claim itself: 500x the effective
// clients within 2x the ns/op and the same order of B/op.
func BenchmarkMegaclients(b *testing.B) { runMegaclientsScenarioBench(b, "megaclients", nil) }

// BenchmarkMegaclientsBaseline_2e3 is the individually simulated reference
// population on the identical deployment (see BenchmarkMegaclients).
func BenchmarkMegaclientsBaseline_2e3(b *testing.B) {
	runMegaclientsScenarioBench(b, "megaregion-eventloop", nil)
}

// BenchmarkMegaclients_Traced is BenchmarkMegaclients with the span layer
// sampling 1% of requests, so the recorded pair prices the observability
// plane at the compression's scale: the delta against the untraced run is
// the whole cost of tracing — sampling decisions on every issue, span
// appends along the sampled paths and trace collection — under the 20%/25%
// regression gate like everything else.
func BenchmarkMegaclients_Traced(b *testing.B) {
	runMegaclientsScenarioBench(b, "megaclients", func(sc *experiment.Scenario) {
		sc.TraceSampleFraction = 0.01
	})
}
