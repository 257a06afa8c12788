package main

// Example runs the program, so `go test` checks its output byte for byte.
func Example() {
	main()
	// Output:
	// initial leader VMC: region2
	// fault schedule:
	//   t=15min  overlay link region1-region3 fails (reroute via transit/Frankfurt)
	//   t=20min  leader controller fails (re-election expected)
	//   t=35min  leader controller recovers
	//   t=40min  overlay link region1-region3 recovers
	//   [t=16min] region1 -> region3 rerouted: region1 -> transit-ams -> region3 (31.0 ms)
	//   [t=21min] leader after controller failure: region1 (unique=true)
	//   [t=36min] leader after recovery: region2
	//
	// run completed despite the injected failures:
	//   client metrics:         issued=241721 completed=241688 dropped=20 meanRT=0.140s slaMiss=1263
	//   control eras executed:  60
	//   elections run:          5
	//   final leader:           region2
	//   region1: proactive rejuvenations=6 reactive recoveries=0 activations=6
	//   region2: proactive rejuvenations=12 reactive recoveries=0 activations=12
	//   region3: proactive rejuvenations=12 reactive recoveries=0 activations=12
	//   mean response time: 140 ms (SLA: 1000 ms)
}
