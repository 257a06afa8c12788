package main

// Example runs the program, so `go test` checks its output byte for byte.
func Example() {
	main()
	// Output:
	// client metrics:          issued=176130 completed=176105 dropped=13 meanRT=0.153s slaMiss=1482
	// control eras executed:   60
	// installed fractions:     region1=0.93  region3=0.07
	// smoothed RMTTF:          region1=1360s region3=1468s
	// leader controller:       region1
	// region1: proactive rejuvenations=11 reactive recoveries=0
	// region3: proactive rejuvenations=10 reactive recoveries=0
	// mean response time: 153 ms (SLA: 1000 ms)
}
