// Global-traffic-director benchmarks: the global-failover scenario — 256
// global clients routed by the director, three regions, a probe every 15 s
// and a mid-run region blackout with failover and failback — timed at
// EventWorkers 1 (inline epochal run) and 4.  On a single core the two are
// expected to be neutral: 4 is an upper bound, and the engine pools an
// epoch only when that measures cheaper than running it inline (the
// "pooled-share" metric records the choice; the nightly GOMAXPROCS=4 CI job
// records it on real cores).  What the
// bench-regression gate buys here is a lid on the director's own overhead:
// the probe, the routing-table rebuilds and the per-request Route calls all
// sit on the request path of every global scenario.  BenchmarkGSLBRoute
// times the per-request Route call on its own.
package repro

import (
	"testing"

	"repro/internal/cloudsim"
	"repro/internal/experiment"
	"repro/internal/gslb"
	"repro/internal/simclock"
)

// runGlobalDirectorBench simulates 30 minutes of the global-failover
// scenario (outage at minute 10, recovery at 20) per iteration.
func runGlobalDirectorBench(b *testing.B, eventWorkers int) {
	b.Helper()
	np, err := experiment.PolicyByKey("policy2")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := experiment.BuildScenario("global-failover", 42)
		if err != nil {
			b.Fatal(err)
		}
		sc.Horizon = 30 * simclock.Minute
		sc.EventWorkers = eventWorkers
		res, be, err := experiment.RunBackend(sc, np)
		if err != nil {
			b.Fatal(err)
		}
		if res.Eras == 0 || len(res.GSLBTransitions) == 0 {
			b.Fatalf("degenerate run: eras=%d transitions=%d", res.Eras, len(res.GSLBTransitions))
		}
		b.ReportMetric(res.SuccessRatio, "success-ratio")
		b.ReportMetric(experiment.EngineFanOut(be).PooledShare(), "pooled-share")
	}
}

func BenchmarkGlobalDirector_1(b *testing.B) { runGlobalDirectorBench(b, 1) }
func BenchmarkGlobalDirector_4(b *testing.B) { runGlobalDirectorBench(b, 4) }

// runGlobalLatencyBench simulates 30 minutes of the global-cablecut scenario
// per iteration: latency-policy routing with per-stream weight rows, the
// per-completion observation tap, the EWMA/P² fold at every 15 s probe and a
// mid-run link fault.  This is the lid on what the latency estimator adds to
// the request path relative to BenchmarkGlobalDirector.
func runGlobalLatencyBench(b *testing.B, eventWorkers int) {
	b.Helper()
	np, err := experiment.PolicyByKey("policy2")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sc, err := experiment.BuildScenario("global-cablecut", 42)
		if err != nil {
			b.Fatal(err)
		}
		sc.Horizon = 30 * simclock.Minute
		sc.EventWorkers = eventWorkers
		res, err := experiment.Run(sc, np)
		if err != nil {
			b.Fatal(err)
		}
		if res.Eras == 0 {
			b.Fatalf("degenerate run: eras=%d", res.Eras)
		}
		b.ReportMetric(res.SuccessRatio, "success-ratio")
	}
}

func BenchmarkGlobalLatency_1(b *testing.B) { runGlobalLatencyBench(b, 1) }
func BenchmarkGlobalLatency_4(b *testing.B) { runGlobalLatencyBench(b, 4) }

// benchRoutes is the number of director routes in one op.
const benchRoutes = 200_000

// BenchmarkGSLBRoute is the director's per-request decision: one op routes
// benchRoutes requests on a static 5:3:2 routing table over three regions.
func BenchmarkGSLBRoute(b *testing.B) {
	regions := []string{"us-east", "eu-west", "ap-south"}
	d, err := gslb.NewDirector(gslb.Config{Policy: gslb.PolicyStatic, Weights: []float64{5, 3, 2}}, regions, nil,
		func(i int) cloudsim.Telemetry { return cloudsim.Telemetry{Region: regions[i]} })
	if err != nil {
		b.Fatal(err)
	}
	table := d.Table()
	rng := simclock.NewRNG(42)
	var rr uint64
	routed := make([]int, len(regions))
	runPerUnit(b, "route", benchRoutes, func() {
		for i := 0; i < benchRoutes; i++ {
			routed[table.RouteStream(0, rng, &rr)]++
		}
	})
	if routed[0] == 0 || routed[1] == 0 || routed[2] == 0 {
		b.Fatalf("a region got no route: %v", routed)
	}
}
