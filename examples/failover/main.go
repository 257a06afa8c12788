// Failover: dependability mechanics of the ACM framework.
//
// The example exercises the parts of the framework that keep the application
// available when things break (experiment E6 of the reproduction):
//
//   - proactive rejuvenation: VMs are rejuvenated before reaching their
//     failure point and standby VMs take over transparently;
//   - overlay rerouting: a failed controller-to-controller link is routed
//     around via the transit node, so RMTTF reports keep flowing;
//   - leader re-election: when the leader VMC's region controller fails, the
//     remaining controllers elect a new leader and the control loop keeps
//     running; the original leader resumes after recovery.
//
// The link and controller failures are schedule data in the config
// (acm.Config.OverlayFaults and ControllerFaults), like every other fault.
//
// Run with:
//
//	go run ./examples/failover
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
	cfg := acm.Config{
		Seed: 99,
		Regions: []acm.RegionSetup{
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion1), Clients: 256},
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion2), Clients: 128},
			{Region: cloudsim.PaperRegionConfig(cloudsim.PaperRegion3), Clients: 96},
		},
		Policy:          core.AvailableResources{},
		ControlInterval: 60 * simclock.Second,
	}
	// The controller fault targets the initial leader, which the election
	// picks when the deployment is built: build it once to learn the
	// leader, then add the fault schedule to the config.
	plain, err := acm.NewManager(cfg)
	if err != nil {
		log.Fatal(err)
	}
	initialLeader, _ := plain.Cluster().GlobalLeader()
	fmt.Println("initial leader VMC:", initialLeader)

	fmt.Println("fault schedule:")
	fmt.Println("  t=15min  overlay link region1-region3 fails (reroute via transit/Frankfurt)")
	fmt.Println("  t=20min  leader controller fails (re-election expected)")
	fmt.Println("  t=35min  leader controller recovers")
	fmt.Println("  t=40min  overlay link region1-region3 recovers")
	cfg.OverlayFaults = []acm.OverlayFault{{A: "region1", B: "region3", At: 15 * simclock.Minute, Duration: 25 * simclock.Minute}}
	cfg.ControllerFaults = []acm.ControllerFault{{Region: initialLeader, At: 20 * simclock.Minute, Duration: 15 * simclock.Minute}}

	// The probes below schedule on the simulator's control timeline, a
	// simulator-specific surface, so this example constructs through the
	// backend seam and unwraps.
	b, err := backend.NewSimulated(cfg)
	if err != nil {
		log.Fatal(err)
	}
	mgr := b.Manager()

	// Observe the overlay route before/after the link failure by probing at
	// specific times.
	mgr.Engine().ScheduleFunc(16*simclock.Minute, func(*simclock.Engine) {
		route, err := mgr.Overlay().ShortestRoute("region1", "region3")
		if err != nil {
			fmt.Println("  [t=16min] region1 -> region3 unreachable:", err)
			return
		}
		fmt.Println("  [t=16min] region1 -> region3 rerouted:", route)
	})
	mgr.Engine().ScheduleFunc(21*simclock.Minute, func(*simclock.Engine) {
		leader, ok := mgr.Cluster().GlobalLeader()
		fmt.Printf("  [t=21min] leader after controller failure: %s (unique=%v)\n", leader, ok)
	})
	mgr.Engine().ScheduleFunc(36*simclock.Minute, func(*simclock.Engine) {
		leader, _ := mgr.Cluster().GlobalLeader()
		fmt.Printf("  [t=36min] leader after recovery: %s\n", leader)
	})

	if err := b.Run(1 * simclock.Hour); err != nil {
		log.Fatal(err)
	}

	final := b.Results()
	fmt.Println()
	fmt.Println("run completed despite the injected failures:")
	fmt.Println("  client metrics:        ", b.Metrics())
	fmt.Println("  control eras executed: ", final.Eras)
	fmt.Println("  elections run:         ", final.Elections)
	fmt.Println("  final leader:          ", final.Leader)
	for _, name := range final.RegionNames {
		s := final.VMCStats[name]
		fmt.Printf("  %s: proactive rejuvenations=%d reactive recoveries=%d activations=%d\n",
			name, s.ProactiveRejuvenations, s.ReactiveRecoveries, s.Activations)
	}
	fmt.Printf("  mean response time: %.0f ms (SLA: 1000 ms)\n", 1000*b.Metrics().MeanResponseTime(""))
}
