// Quickstart: the smallest useful ACM deployment.
//
// Two heterogeneous cloud regions (six m3.medium VMs in Ireland, four small
// private VMs in Munich) serve a TPC-W-like workload from two client
// populations.  The leader VMC runs Policy 2 (available-resources estimation)
// so that both regions converge to the same Region Mean Time To Failure, and
// each region's controller proactively rejuvenates VMs whose predicted
// remaining time to failure drops below ten minutes.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/acm"
	"repro/internal/backend"
	"repro/internal/cloudsim"
	"repro/internal/core"
	"repro/internal/simclock"
)

func main() {
	// 1. Describe the deployment: regions, clients and the policy.
	cfg := acm.Config{
		Seed: 1,
		Regions: []acm.RegionSetup{
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: 256},
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: 96},
		},
		Policy:          core.AvailableResources{},
		Beta:            0.5,
		ControlInterval: 60 * simclock.Second,
	}

	// 2. Build and run the simulated deployment for one hour, through the
	// backend seam — the same interface the experiment runners and CLIs use.
	b, err := backend.NewSimulated(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := b.Run(1 * simclock.Hour); err != nil {
		log.Fatal(err)
	}

	// 3. Inspect what the autonomic manager did, from the end-of-run
	// snapshot.  Sim-only internals stay reachable via b.Manager().
	final := b.Results()
	fmt.Println("client metrics:         ", b.Metrics())
	fmt.Println("control eras executed:  ", final.Eras)
	fmt.Println("installed fractions:    ", fmtFractions(final.RegionNames, final.FinalFractions))
	fmt.Println("smoothed RMTTF:         ", b.Manager().Loop().Aggregator().String())
	fmt.Println("leader controller:      ", final.Leader)
	for _, name := range final.RegionNames {
		s := final.VMCStats[name]
		fmt.Printf("%s: proactive rejuvenations=%d reactive recoveries=%d\n",
			name, s.ProactiveRejuvenations, s.ReactiveRecoveries)
	}
	fmt.Printf("mean response time: %.0f ms (SLA: 1000 ms)\n", 1000*b.Metrics().MeanResponseTime(""))
}

func fmtFractions(names []string, fractions []float64) string {
	s := ""
	for i, n := range names {
		if i > 0 {
			s += "  "
		}
		s += fmt.Sprintf("%s=%.2f", n, fractions[i])
	}
	return s
}
